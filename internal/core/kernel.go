package core

import (
	"context"
	"fmt"

	"noctest/internal/noc"
	"noctest/internal/power"
)

// Evaluator is the incremental search kernel: it scores a stream of
// related core orders against one model, replaying only the suffix
// that differs from the previously evaluated order. After every
// placement it checkpoints the pass state — interface frontiers, the
// running makespan, and a snapshot of the power profile's arrays — and
// journals the committed link reservations, so rewinding to position k
// costs one frontier copy, one profile-array copy, and popping the link
// journal. Restoring the profile from a snapshot is bitwise (the arrays
// are copied verbatim), which is what keeps incremental results exactly
// equal to full replays, float rounding included — and it costs the
// same whether one position is undone or thirty.
//
// Evaluate also takes an incumbent bound and aborts a pass the moment
// its partial makespan exceeds it (see MakespanBounded for why that is
// sound). Checkpoint makespans are monotone in position, so a reused
// prefix that already crosses the bound is answered from the
// checkpoints without replaying or rewinding anything. An aborted or
// failed pass leaves the kernel holding the evaluated prefix, which the
// next Evaluate reuses like any other.
//
// The kernel produces exactly the makespans of the full-replay path:
// internal/verify's incremental-replay oracle cross-checks the two on
// every sweep scenario. An Evaluator owns pooled scratch state and is
// not safe for concurrent use; each search chain creates its own and
// must Close it to return the scratch to the model's pool.
type Evaluator struct {
	m *Model
	v Variant
	s *scratch

	// ref is the last evaluated order; its first valid positions are
	// committed in the scratch, with cps[0..valid] current. links journals every link
	// reservation the committed prefix made; marks[i] is the journal
	// length before position i was placed, so positions k..valid-1 undo
	// by popping the journal down to marks[k]. A flat journal (rather
	// than one slice per position) is what lets a position commit a
	// whole segment chain — several reservations per link — and still
	// rewind with per-link LIFO discipline.
	ref   []int
	valid int
	cps   []checkpoint
	links []noc.LinkID
	marks []int

	// trusted skips per-call permutation validation; see
	// SetTrustedOrders.
	trusted bool
	// seen/seenGen validate each order as a permutation in O(n) without
	// clearing between calls.
	seen    []int
	seenGen int
}

// checkpoint is the pass state before placing one position: the
// running makespan, the interface frontiers, and a verbatim snapshot
// of the power profile's segment arrays. The snapshot is what makes
// rewinding O(profile size) regardless of how many reservations are
// being undone.
type checkpoint struct {
	makespan int
	fr       []frontier
	prof     power.ProfileSnapshot
}

// NewEvaluator returns an incremental evaluator for one interface-choice
// rule, holding a scratch from the model's pool until Close.
func (m *Model) NewEvaluator(v Variant) *Evaluator {
	e := &Evaluator{
		m:     m,
		v:     v,
		s:     m.pool.Get().(*scratch),
		ref:   make([]int, 0, len(m.cores)),
		cps:   make([]checkpoint, len(m.cores)+1),
		marks: make([]int, len(m.cores)+1),
		seen:  make([]int, len(m.cores)),
	}
	e.s.reset(m)
	e.capture(0, 0)
	return e
}

// Close returns the evaluator's scratch to the model's pool. The
// evaluator must not be used afterwards.
func (e *Evaluator) Close() {
	if e.s != nil {
		e.m.pool.Put(e.s)
		e.s = nil
	}
}

// SetTrustedOrders disables per-call permutation validation. The
// package's own search chains mutate a validated base permutation by
// swaps and shuffles, so every order they pass is a permutation by
// construction and the O(n) check per move is pure overhead; external
// callers should leave validation on — a non-permutation order then
// errors instead of corrupting the evaluator.
func (e *Evaluator) SetTrustedOrders(on bool) { e.trusted = on }

// capture snapshots the scratch frontiers and the power profile into
// checkpoint pos, reusing its backing arrays.
func (e *Evaluator) capture(pos, makespan int) {
	cp := &e.cps[pos]
	cp.makespan = makespan
	cp.fr = append(cp.fr[:0], e.s.fr...)
	e.s.profile.Snapshot(&cp.prof)
}

// rewind restores the scratch to the checkpoint before position k: the
// journalled link reservations of positions k..valid-1 are popped in
// reverse commit order (per-link LIFO discipline), the power profile is
// restored bitwise from checkpoint k's snapshot — one array copy, no
// matter how deep the rewind — and the interface frontiers are copied
// back from cps[k].
func (e *Evaluator) rewind(k int) int {
	cp := &e.cps[k]
	mk := e.marks[k]
	for i := len(e.links) - 1; i >= mk; i-- {
		e.s.lines.Pop(e.links[i])
	}
	e.links = e.links[:mk]
	e.s.profile.Restore(&cp.prof)
	copy(e.s.fr, cp.fr)
	e.valid = k
	return cp.makespan
}

// divergence returns the first position where order differs from the
// committed prefix of the reference order.
func (e *Evaluator) divergence(order []int) int {
	k := 0
	lim := e.valid
	if len(order) < lim {
		lim = len(order)
	}
	for k < lim && order[k] == e.ref[k] {
		k++
	}
	return k
}

// checkPermutation rejects orders run would reject, up front: wrong
// length, out-of-range indices, repeats.
func (e *Evaluator) checkPermutation(order []int) error {
	if len(order) != len(e.m.cores) {
		return fmt.Errorf("core: explicit order covers %d of %d cores", len(order), len(e.m.cores))
	}
	e.seenGen++
	for _, ci := range order {
		if ci < 0 || ci >= len(e.m.cores) {
			return fmt.Errorf("core: order names core index %d outside [0,%d)", ci, len(e.m.cores))
		}
		if e.seen[ci] == e.seenGen {
			return fmt.Errorf("core: order repeats core %d", e.m.cores[ci].Core.ID)
		}
		e.seen[ci] = e.seenGen
	}
	return nil
}

// Evaluate scores order under the evaluator's variant rule and returns
// its makespan, replaying only the positions at or after the first
// difference from the previously evaluated order. The pass aborts with
// pruned=true as soon as the partial makespan exceeds bound; the value
// returned is then the makespan right after the first placement that
// crossed the bound — exactly what the full-replay path reports, even
// when that placement sits inside the reused prefix (checkpoint
// makespans are monotone in position, so the crossing is found by a
// binary search, and the committed state is left untouched). A
// resubmitted order costs no placement either: its makespan is the
// final checkpoint's. A non-positive bound disables pruning. On error
// the prefix evaluated so far is retained, so infeasible neighbours
// cost only their divergent suffix too.
func (e *Evaluator) Evaluate(ctx context.Context, order []int, bound int) (ms int, pruned bool, err error) {
	if !e.trusted {
		if err := e.checkPermutation(order); err != nil {
			return 0, false, err
		}
	}
	if bound <= 0 {
		bound = noBound
	}
	k := e.divergence(order)
	e.m.stats.orders.Add(1)
	e.m.stats.recordLocality(k, len(order))
	e.m.stats.replayed.Add(uint64(k))

	if e.cps[k].makespan > bound {
		// The reused prefix alone crosses the bound. cps[0] is empty, so
		// the first crossing lies in 1..k.
		lo, hi := 1, k
		for lo < hi {
			mid := (lo + hi) / 2
			if e.cps[mid].makespan > bound {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		e.m.stats.deltaHits.Add(1)
		e.m.stats.pruned.Add(1)
		return e.cps[lo].makespan, true, nil
	}

	makespan := e.rewind(k)
	for i := k; i < len(order); i++ {
		if err := ctx.Err(); err != nil {
			e.commitPrefix(order, i)
			return 0, false, err
		}
		end, err := e.m.place(e.s, e.v, order[i], nil, &e.links)
		if err != nil {
			e.commitPrefix(order, i)
			return 0, false, err
		}
		e.marks[i+1] = len(e.links)
		if end > makespan {
			makespan = end
		}
		e.capture(i+1, makespan)
		if makespan > bound {
			e.m.stats.pruned.Add(1)
			e.m.stats.placed.Add(uint64(i + 1 - k))
			e.commitPrefix(order, i+1)
			return makespan, true, nil
		}
	}
	if k == len(order) {
		e.m.stats.deltaHits.Add(1)
	}
	e.commitPrefix(order, len(order))
	e.m.stats.placed.Add(uint64(len(order) - k))
	return makespan, false, nil
}

// commitPrefix records that the first n positions of order are now the
// committed state of the scratch.
func (e *Evaluator) commitPrefix(order []int, n int) {
	e.ref = append(e.ref[:0], order...)
	e.valid = n
}
