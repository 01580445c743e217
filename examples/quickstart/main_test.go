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
	// channel up: qpn=0x11 rkey=0x1000 base=0x10000000 size=1048576
	// delivered: 10000/10000 packets
	// remote counter for the flow: 10000 (exact: true)
	// memory server CPU operations after setup: 0
	// virtual time elapsed: 1.20197ms
}
