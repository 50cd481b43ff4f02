// Package topology models a NUMA machine as software: a set of nodes, each
// with a fixed number of hardware threads (cores × SMT ways), and a placement
// policy that assigns logical threads to nodes.
//
// Go offers no portable thread pinning, so the rest of the library treats a
// registered goroutine as a "thread" whose node assignment comes from this
// package. The assignment controls which replica, combiner slot, and reader
// lock a thread uses; it is the software analogue of the pinning the paper
// performs with sched_setaffinity.
package topology

import "fmt"

// Topology describes a NUMA machine.
type Topology struct {
	nodes        int
	coresPerNode int
	smt          int
}

// New returns a topology with the given number of NUMA nodes, physical cores
// per node, and SMT ways per core. It panics if any dimension is < 1; use
// Validate to check untrusted input.
func New(nodes, coresPerNode, smt int) Topology {
	t := Topology{nodes: nodes, coresPerNode: coresPerNode, smt: smt}
	if err := t.Validate(); err != nil {
		panic(err)
	}
	return t
}

// Intel4x14x2 is the paper's primary testbed: four Xeon E7-4850v3 sockets,
// 14 cores each, 2 hyperthreads per core — 112 hardware threads (§8).
func Intel4x14x2() Topology { return New(4, 14, 2) }

// AMD8x6 is the paper's secondary testbed: eight Magny-Cours sockets with
// 6 cores each and no SMT — 48 hardware threads (§8.4).
func AMD8x6() Topology { return New(8, 6, 1) }

// Validate reports whether the topology dimensions are sane.
func (t Topology) Validate() error {
	if t.nodes < 1 || t.coresPerNode < 1 || t.smt < 1 {
		return fmt.Errorf("topology: dimensions must be >= 1, got nodes=%d cores=%d smt=%d",
			t.nodes, t.coresPerNode, t.smt)
	}
	return nil
}

// Nodes returns the number of NUMA nodes.
func (t Topology) Nodes() int { return t.nodes }

// CoresPerNode returns the number of physical cores on each node.
func (t Topology) CoresPerNode() int { return t.coresPerNode }

// SMT returns the number of hardware threads per core.
func (t Topology) SMT() int { return t.smt }

// ThreadsPerNode returns the number of hardware threads on each node.
func (t Topology) ThreadsPerNode() int { return t.coresPerNode * t.smt }

// TotalThreads returns the number of hardware threads in the machine.
func (t Topology) TotalThreads() int { return t.nodes * t.ThreadsPerNode() }

// NodeOf returns the node a logical thread lands on under the paper's fill
// policy: threads fill a node completely (including its SMT siblings) before
// spilling onto the next node (§8: "We first use all threads within a node,
// including hyperthreads; as we add more threads, we use threads of more
// nodes").
func (t Topology) NodeOf(thread int) int {
	if thread < 0 {
		panic(fmt.Sprintf("topology: negative thread id %d", thread))
	}
	return (thread / t.ThreadsPerNode()) % t.nodes
}

// String renders the topology in a compact nodes×cores×smt form.
func (t Topology) String() string {
	return fmt.Sprintf("%d nodes × %d cores × %d SMT (%d threads)",
		t.nodes, t.coresPerNode, t.smt, t.TotalThreads())
}

// Placement assigns registered threads to nodes with the paper's fill
// policy (NodeOf), counting the threads placed so far.
type Placement struct {
	topo Topology
	next int
}

// NewFillPlacement places threads with the paper's fill policy.
func NewFillPlacement(t Topology) *Placement {
	return &Placement{topo: t}
}

// Next assigns and returns the node for the next registered thread.
// Not safe for concurrent use; callers serialize registration.
func (p *Placement) Next() (thread, node int) {
	thread = p.next
	node = p.topo.NodeOf(thread)
	p.next++
	return thread, node
}

// Assigned returns how many threads have been placed.
func (p *Placement) Assigned() int { return p.next }
