package main

import (
	"log"
	"os"
)

// The same seed gives the same trace bytes: every frame the switch taps,
// its virtual timestamp and its decoded headers.
func Example() {
	if err := run(os.Stdout, 8, false); err != nil {
		log.Fatal(err)
	}
	// Output:
	// testbed: 2 hosts + 1 memory server, RoCEv2 (UDP/4791) channels
	// pipeline: count flow in remote DRAM (FAA) + fetch action from remote table
	//
	//        294ns  rx port 0  UDP 10.0.0.1:5555 > 10.0.0.2:80 len=200
	//        744ns  tx port 2  RoCEv2 10.255.0.1 > 10.0.0.200 FETCH_ADD qp=0x11 psn=0 va=0x10000098 rkey=0x1000 add=1 len=86
	//        766ns  tx port 2  RoCEv2 10.255.0.1 > 10.0.0.200 RDMA_WRITE_ONLY qp=0x12 psn=0 va=0x100026c6 rkey=0x1001 dmalen=202 payload=202B len=276
	//        825ns  tx port 2  RoCEv2 10.255.0.1 > 10.0.0.200 RDMA_READ_REQUEST qp=0x12 psn=1 va=0x100026be rkey=0x1001 dmalen=522 len=74
	//      2.659µs  rx port 2  RoCEv2 10.0.0.200 > 10.255.0.1 ATOMIC_ACKNOWLEDGE qp=0x100 psn=0 ack msn=1 orig=0 len=70
	//      2.918µs  rx port 2  RoCEv2 10.0.0.200 > 10.255.0.1 RDMA_READ_RESPONSE_ONLY qp=0x101 psn=1 ack msn=2 payload=522B len=584
	//      3.368µs  tx port 1  UDP 10.0.0.1:5555 > 10.0.0.2:80 len=200
	//      3.956µs  rx port 0  UDP 10.0.0.1:5555 > 10.0.0.2:80 len=200
	// ... 13 further frames not recorded (limit 8)
	//
	// remote flow counter: 3; delivered: 3; server CPU ops: 0
}

// RoCEv1 carries the same verbs under a GRH instead of IPv4/UDP, so each
// RDMA frame grows by 12 bytes.
func Example_roceV1() {
	if err := run(os.Stdout, 6, true); err != nil {
		log.Fatal(err)
	}
	// Output:
	// testbed: 2 hosts + 1 memory server, RoCEv1 (GRH over Ethernet) channels
	// pipeline: count flow in remote DRAM (FAA) + fetch action from remote table
	//
	//        294ns  rx port 0  UDP 10.0.0.1:5555 > 10.0.0.2:80 len=200
	//        744ns  tx port 2  RoCEv1 10.255.0.1 > 10.0.0.200 FETCH_ADD qp=0x11 psn=0 va=0x10000098 rkey=0x1000 add=1 len=98
	//        768ns  tx port 2  RoCEv1 10.255.0.1 > 10.0.0.200 RDMA_WRITE_ONLY qp=0x12 psn=0 va=0x100026c6 rkey=0x1001 dmalen=202 payload=202B len=288
	//        830ns  tx port 2  RoCEv1 10.255.0.1 > 10.0.0.200 RDMA_READ_REQUEST qp=0x12 psn=1 va=0x100026be rkey=0x1001 dmalen=522 len=86
	//      2.664µs  rx port 2  RoCEv1 10.0.0.200 > 10.255.0.1 ATOMIC_ACKNOWLEDGE qp=0x100 psn=0 ack msn=1 orig=0 len=82
	//      2.923µs  rx port 2  RoCEv1 10.0.0.200 > 10.255.0.1 RDMA_READ_RESPONSE_ONLY qp=0x101 psn=1 ack msn=2 payload=522B len=596
	// ... 15 further frames not recorded (limit 6)
	//
	// remote flow counter: 3; delivered: 3; server CPU ops: 0
}
