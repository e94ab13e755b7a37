// Package dataplane implements the SDNFV NF Manager as a real concurrent
// engine (§4.1–4.2): goroutine "threads" (RX, TX, Flow Controller, one per
// NF instance) connected only by lock-free SPSC rings; packets live in a
// shared mempool and only descriptors move.
//
// The engine reproduces the paper's systems optimizations:
//
//   - zero-copy packet exchange with per-buffer reference counts for
//     parallel dispatch;
//   - one flow-table lookup per hop, keyed by the 5-tuple parsed once at
//     admission and carried in the descriptor, so no thread re-parses
//     packet bytes. Unlike the paper (§4.2) the descriptor carries no
//     looked-up entry: every scope has its own rule, so a carried entry
//     would save no lookup and would go stale if the rule were rewritten
//     while the packet sits in an NF. An NF that rewrites the 5-tuple
//     steers with an explicit verb (as MemcachedProxy does with nf.Out),
//     since lookups keep using the admission key;
//   - automatic load balancing across NF replicas (round-robin,
//     queue-depth, or flow-hash);
//   - action conflict resolution for parallel NFs (drop > out > forward,
//     then instance priority).
package dataplane

import (
	"sdnfv/internal/flowtable"
	"sdnfv/internal/mempool"
	"sdnfv/internal/nf"
	"sdnfv/internal/packet"
)

// Desc is the packet descriptor exchanged through rings. It carries the
// buffer handle plus everything the manager needs to avoid touching the
// packet bytes on the fast path: the parsed view and the 5-tuple. Each
// hop resolves its rule with one table lookup of (Scope, Key) when the
// packet reaches it; no entry is carried between hops.
type Desc struct {
	H mempool.Handle
	// Key is the 5-tuple parsed once at admission; every hop's flow-table
	// lookup uses it, even if an NF rewrites the packet's headers.
	Key packet.FlowKey
	// View is the parsed header view (aliases the pool buffer).
	View packet.View
	// Scope is where the packet currently sits: an ingress port before
	// first dispatch, else the service that just processed it.
	Scope flowtable.ServiceID
	// Verb and Dest record the NF's requested action on the way back to
	// the TX thread.
	Verb nf.Verb
	Dest flowtable.ServiceID
	// ArrivalNanos is the engine-clock RX timestamp.
	ArrivalNanos int64
	// parallel marks this descriptor as one copy of a parallel fan-out;
	// the join logic in the TX path runs only for such descriptors.
	parallel bool
}

// mergedAction packs a resolved flowtable.Action plus an instance priority
// into a uint64 for atomic max-merging during parallel joins. Higher packed
// value = higher priority outcome.
//
// Layout (most significant wins):
//
//	bits 48..63: action type rank (drop=3, out=2, forward=1)
//	bits 32..47: instance priority
//	bits 16..31: ^dest (so lower ServiceID wins ties deterministically)
//	bit 0:       valid
type mergedAction uint64

//sdnfv:hotpath
func packAction(a flowtable.Action, instPriority uint16) mergedAction {
	var rank uint64
	switch a.Type {
	case flowtable.ActionDrop:
		rank = 3
	case flowtable.ActionOut:
		rank = 2
	default:
		rank = 1
	}
	return mergedAction(rank<<48 | uint64(instPriority)<<32 | uint64(^uint16(a.Dest))<<16 | 1)
}

//sdnfv:hotpath
func (m mergedAction) valid() bool { return m&1 == 1 }

//sdnfv:hotpath
func (m mergedAction) action() flowtable.Action {
	rank := uint64(m) >> 48
	dest := flowtable.ServiceID(^uint16(uint64(m) >> 16))
	switch rank {
	case 3:
		return flowtable.Drop()
	case 2:
		return flowtable.Action{Type: flowtable.ActionOut, Dest: dest}
	default:
		return flowtable.Forward(dest)
	}
}
