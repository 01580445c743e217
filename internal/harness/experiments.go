package harness

import "gem/internal/sim"

// Experiment is one table gem-bench prints: its id and how to run it. Run
// returns the rendered table; quick swaps in reduced settings for a fast
// smoke run.
type Experiment struct {
	ID  string
	Run func(quick bool) *Table
}

// tableOf keeps a RunE* call's table and drops its typed result, which only
// tests read.
func tableOf[R any](t *Table, _ R) *Table { return t }

// Experiments lists every experiment in output order — the single table
// gem-bench runs and TestGoldenOutput pins.
var Experiments = []Experiment{
	{"E1", func(quick bool) *Table {
		cfg := DefaultE1Config()
		if quick {
			cfg.Window = 1 * sim.Millisecond
			cfg.SweepStart, cfg.SweepStep = 33, 1
			cfg.DrainFrames = 800
		}
		return tableOf(RunE1(cfg))
	}},
	{"E2", func(quick bool) *Table {
		cfg := DefaultE2Config()
		if quick {
			cfg.Rounds = 15
		}
		return tableOf(RunE2(cfg))
	}},
	{"E3", func(quick bool) *Table {
		cfg := DefaultE3Config()
		if quick {
			cfg.Window = 1 * sim.Millisecond
			cfg.Sizes = []int{64, 256, 1024}
		}
		return tableOf(RunE3(cfg))
	}},
	{"E4", func(quick bool) *Table {
		cfg := DefaultE4Config()
		if quick {
			cfg.BurstMBs = []int{12, 25}
		}
		return tableOf(RunE4(cfg))
	}},
	{"E5", func(quick bool) *Table {
		cfg := DefaultE5Config()
		if quick {
			cfg.Mappings, cfg.Packets = 50_000, 15_000
			cfg.CacheEntries = 4096
		}
		return tableOf(RunE5(cfg))
	}},
	{"E6", func(quick bool) *Table {
		cfg := DefaultE6Config()
		if quick {
			cfg.Packets = 15_000
		}
		return tableOf(RunE6(cfg))
	}},
	{"E7", func(bool) *Table { return tableOf(RunE7(DefaultE7Config())) }},
	{"E8A", func(quick bool) *Table {
		cfg := DefaultE8aConfig()
		if quick {
			cfg.Window = 1 * sim.Millisecond
			cfg.Batches = []uint64{1, 32, 512}
		}
		return tableOf(RunE8a(cfg))
	}},
	{"E8B", func(quick bool) *Table {
		cfg := DefaultE8bConfig()
		if quick {
			cfg.Packets = 100
		}
		return tableOf(RunE8b(cfg))
	}},
	{"E8C", func(quick bool) *Table {
		cfg := DefaultE8cConfig()
		if quick {
			cfg.Updates = 500
		}
		return tableOf(RunE8c(cfg))
	}},
	{"E8D", func(quick bool) *Table {
		cfg := DefaultE8dConfig()
		if quick {
			cfg.Window = 1 * sim.Millisecond
			cfg.CapsGbps = []float64{0, 1}
		}
		return tableOf(RunE8d(cfg))
	}},
	{"E8E", func(quick bool) *Table {
		cfg := DefaultE8eConfig()
		if quick {
			cfg.Window = 4 * sim.Millisecond
		}
		return tableOf(RunE8e(cfg))
	}},
	{"E8F", func(quick bool) *Table {
		cfg := DefaultE8fConfig()
		if quick {
			cfg.Window = 6 * sim.Millisecond
			cfg.CrashAt = 2 * sim.Millisecond
		}
		return tableOf(RunE8f(cfg))
	}},
	// E9–E13 are already short runs (microsecond-scale scenarios); quick
	// changes nothing.
	{"E9", func(bool) *Table { return tableOf(RunE9(DefaultE9Config())) }},
	{"E10", func(bool) *Table { return tableOf(RunE10(DefaultE10Config())) }},
	{"E11", func(bool) *Table { return tableOf(RunE11(DefaultE11Config())) }},
	{"E12", func(bool) *Table { return tableOf(RunE12(DefaultE12Config())) }},
	{"E13", func(bool) *Table { return tableOf(RunE13(DefaultE13Config())) }},
}
