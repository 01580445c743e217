package main

import (
	"log"
	"os"
)

// The whole run is deterministic: the same seed gives the same bytes.
func Example() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
	// Output:
	// connections: 2000, packets: 10000 (delivered 10000)
	// per-connection consistency violations: 0
	// backend distribution:
	//   10.0.0.2:  2500 packets (25.0%)
	//   10.0.0.3:  2505 packets (25.1%)
	//   10.0.0.4:  2500 packets (25.0%)
	//   10.0.0.5:  2495 packets (24.9%)
	// connection table: 65536 buckets in remote DRAM (32.6 MB), SRAM cache 2048 entries
	// cache hit rate: 80.0%, remote lookups: 2000, server CPU ops: 0
}
