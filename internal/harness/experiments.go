package harness

// Experiment is one table gem-bench prints: its id and how to run it at the
// experiment's default settings.
type Experiment struct {
	ID  string
	Run func() *Table
}

// experiment runs run on the defaults cfg returns and keeps the table; the
// typed result is only for tests.
func experiment[C, R any](id string, run func(C) (*Table, R), cfg func() C) Experiment {
	return Experiment{id, func() *Table {
		t, _ := run(cfg())
		return t
	}}
}

// Experiments lists every experiment in output order — the single table
// gem-bench runs and TestGoldenOutput pins.
var Experiments = []Experiment{
	experiment("E1", RunE1, DefaultE1Config),
	experiment("E2", RunE2, DefaultE2Config),
	experiment("E3", RunE3, DefaultE3Config),
	experiment("E4", RunE4, DefaultE4Config),
	experiment("E5", RunE5, DefaultE5Config),
	experiment("E6", RunE6, DefaultE6Config),
	experiment("E7", RunE7, DefaultE7Config),
	experiment("E8A", RunE8a, DefaultE8aConfig),
	experiment("E8B", RunE8b, DefaultE8bConfig),
	experiment("E8C", RunE8c, DefaultE8cConfig),
	experiment("E8D", RunE8d, DefaultE8dConfig),
	experiment("E8E", RunE8e, DefaultE8eConfig),
	experiment("E8F", RunE8f, DefaultE8fConfig),
	experiment("E9", RunE9, DefaultE9Config),
	experiment("E10", RunE10, DefaultE10Config),
	experiment("E11", RunE11, DefaultE11Config),
	experiment("E12", RunE12, DefaultE12Config),
	experiment("E13", RunE13, DefaultE13Config),
}
