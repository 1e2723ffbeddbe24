package power

// Profile is a dense piecewise-constant load profile for hot scheduling
// loops. It answers the same feasibility questions as Tracker but keeps
// the profile as sorted segment boundaries with incrementally maintained
// loads, so a peak query costs a binary search plus a scan of the
// boundaries inside the window instead of a rescan of every recorded
// reservation. A Profile is resettable in place: Reset keeps the backing
// arrays, which lets a scheduler replay thousands of passes without
// reallocating. Profiles are not safe for concurrent use; give each
// worker its own.
type Profile struct {
	limit float64
	// times[i] opens the segment [times[i], times[i+1]) carrying
	// loads[i]; the final segment extends to +inf. Before the first
	// boundary the load is zero.
	times []int
	loads []float64
}

// NewProfile returns an empty profile enforcing the given ceiling. Use
// Unlimited (or any non-positive value) for an unconstrained profile.
func NewProfile(limit float64) *Profile {
	p := &Profile{}
	p.Reset(limit)
	return p
}

// Reset empties the profile in place and installs a new ceiling,
// keeping the backing arrays for reuse.
func (p *Profile) Reset(limit float64) {
	if limit <= 0 {
		limit = Unlimited
	}
	p.limit = limit
	p.times = p.times[:0]
	p.loads = p.loads[:0]
}

// Limit returns the ceiling.
func (p *Profile) Limit() float64 { return p.limit }

// segmentBefore returns the index of the last boundary <= t, or -1 when
// t precedes every boundary. The search gallops backwards from the end
// before bisecting: scheduling passes overwhelmingly query near the
// schedule frontier, where the answer sits within the last handful of
// boundaries, so the common case costs two or three comparisons instead
// of a full binary search.
func (p *Profile) segmentBefore(t int) int {
	n := len(p.times)
	if n == 0 || p.times[0] > t {
		return -1
	}
	if p.times[n-1] <= t {
		return n - 1
	}
	// Invariant from here: times[0] <= t < times[hi].
	hi := n - 1
	lo := hi - 1
	for step := 2; p.times[lo] > t; step <<= 1 {
		hi = lo
		if lo -= step; lo <= 0 {
			lo = 0
			break
		}
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if p.times[mid] <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// PeakIn returns the maximum load over [start, end).
func (p *Profile) PeakIn(start, end int) float64 {
	if end <= start || len(p.times) == 0 {
		return 0
	}
	peak := 0.0
	i := p.segmentBefore(start)
	if i >= 0 {
		peak = p.loads[i]
	}
	for j := i + 1; j < len(p.times) && p.times[j] < end; j++ {
		if p.loads[j] > peak {
			peak = p.loads[j]
		}
	}
	return peak
}

// CanAdd reports whether reserving amount over [start, end) keeps the
// profile at or below the ceiling. The tolerance matches Tracker.CanAdd.
func (p *Profile) CanAdd(start, end int, amount float64) bool {
	if amount < 0 || end <= start {
		return false
	}
	if p.limit == Unlimited {
		return true
	}
	return p.PeakIn(start, end)+amount <= p.limit+1e-9
}

// CanAddBatch evaluates CanAdd for every window [starts[k], ends[k])
// with one shared boundary search instead of one per window, writing
// each verdict into out[k] and reporting whether every window passed.
// The windows must be sorted by ascending start — the batch walks the
// boundary array with a single forward cursor, so one backward gallop
// under the first start is amortised across the whole batch and w
// probes cost O(log n + touched + w) instead of w independent
// searches. Each out[k] is exactly CanAdd(starts[k], ends[k], amount).
func (p *Profile) CanAddBatch(starts, ends []int, amount float64, out []bool) bool {
	all := true
	if p.limit == Unlimited {
		for k := range starts {
			out[k] = amount >= 0 && ends[k] > starts[k]
			all = all && out[k]
		}
		return all
	}
	if amount < 0 || amount > p.limit+1e-9 {
		// A draw above the ceiling fails every window, including the
		// zero-load stretch before the first boundary — without this
		// precheck the segment scan below would vacuously pass windows
		// that overlap no segments.
		for k := range starts {
			out[k] = false
		}
		return len(starts) == 0
	}
	base := -1
	if len(p.times) > 0 && len(starts) > 0 {
		base = p.segmentBefore(starts[0])
	}
	for k, s := range starts {
		e := ends[k]
		if e <= s {
			out[k] = false
			all = false
			continue
		}
		for base+1 < len(p.times) && p.times[base+1] <= s {
			base++
		}
		ok := true
		if base >= 0 && p.loads[base]+amount > p.limit+1e-9 {
			ok = false
		}
		for j := base + 1; ok && j < len(p.times) && p.times[j] < e; j++ {
			if p.loads[j]+amount > p.limit+1e-9 {
				ok = false
			}
		}
		out[k] = ok
		all = all && ok
	}
	return all
}

// Add records a reservation unconditionally; callers gate on CanAdd.
// Scheduling passes intentionally separate the check from the commit so
// a feasibility scan can probe many windows before reserving one.
func (p *Profile) Add(start, end int, amount float64) {
	if end <= start {
		return
	}
	i := p.ensureBoundaryAt(start)
	// The end boundary is found by walking forward from start — the
	// same segments the load bump must visit anyway — instead of a
	// second search from the top. j lands on the first boundary at or
	// beyond end (i < j always: times[i] == start < end).
	j := i
	for j < len(p.times) && p.times[j] < end {
		j++
	}
	if j == len(p.times) || p.times[j] != end {
		p.times = append(p.times, 0)
		p.loads = append(p.loads, 0)
		copy(p.times[j+1:], p.times[j:])
		copy(p.loads[j+1:], p.loads[j:])
		p.times[j] = end
		p.loads[j] = p.loads[j-1]
	}
	for ; i < j; i++ {
		p.loads[i] += amount
	}
}

// TryAdd reserves amount over [start, end) iff the reservation keeps
// the profile at or below the ceiling, reporting whether it did. It is
// CanAdd and Add fused into one pass over the window's segments, for
// hot scheduling loops that commit exactly what they just probed.
func (p *Profile) TryAdd(start, end int, amount float64) bool {
	if amount < 0 || end <= start {
		return false
	}
	p.ensureBoundary(start)
	p.ensureBoundary(end)
	i := p.segmentBefore(start)
	if p.limit != Unlimited {
		for j := i; j < len(p.times) && p.times[j] < end; j++ {
			if p.loads[j]+amount > p.limit+1e-9 {
				return false
			}
		}
	}
	for ; i < len(p.times) && p.times[i] < end; i++ {
		p.loads[i] += amount
	}
	return true
}

// ensureBoundary splits the segment containing t so a boundary starts
// exactly at t.
func (p *Profile) ensureBoundary(t int) {
	p.ensureBoundaryAt(t)
}

// ensureBoundaryAt is ensureBoundary reporting the boundary's index.
func (p *Profile) ensureBoundaryAt(t int) int {
	i := p.segmentBefore(t)
	if i >= 0 && p.times[i] == t {
		return i
	}
	load := 0.0
	if i >= 0 {
		load = p.loads[i]
	}
	p.times = append(p.times, 0)
	p.loads = append(p.loads, 0)
	copy(p.times[i+2:], p.times[i+1:])
	copy(p.loads[i+2:], p.loads[i+1:])
	p.times[i+1] = t
	p.loads[i+1] = load
	return i + 1
}

// ProfileSnapshot is a saved Profile state. Snapshots are plain value
// containers: the search kernel keeps one per order position so a
// scheduling pass can rewind its power state to any prefix without
// replaying the reservations. The zero value is an empty snapshot.
type ProfileSnapshot struct {
	limit float64
	times []int
	loads []float64
}

// Snapshot copies the profile's current state into snap, reusing snap's
// backing arrays when they are large enough, so checkpoint streams
// allocate only while they grow.
func (p *Profile) Snapshot(snap *ProfileSnapshot) {
	snap.limit = p.limit
	snap.times = append(snap.times[:0], p.times...)
	snap.loads = append(snap.loads[:0], p.loads...)
}

// Restore rewinds the profile to a previously captured snapshot,
// reusing the profile's backing arrays. Restoring costs one copy of the
// snapshot's segments — independent of how many reservations were added
// after the snapshot was taken.
func (p *Profile) Restore(snap *ProfileSnapshot) {
	p.limit = snap.limit
	p.times = append(p.times[:0], snap.times...)
	p.loads = append(p.loads[:0], snap.loads...)
}

// NextBoundaryAfter returns the first segment boundary strictly after
// t, or -1 when none exists. Feasibility loops use it to advance a
// candidate start past the profile step that rejected it.
func (p *Profile) NextBoundaryAfter(t int) int {
	i := p.segmentBefore(t) + 1
	if i < len(p.times) {
		return p.times[i]
	}
	return -1
}

// FirstFit returns the earliest t >= from such that reserving amount
// over [t, t+duration) stays at or below the ceiling. It walks the
// segments once, restarting the window after every blocking segment, so
// it is equivalent to — but much cheaper than — probing CanAdd at every
// boundary. Each segment is judged with the same expression CanAdd
// uses (load+amount <= limit+1e-9), and the peak of a window clears the
// ceiling exactly when every overlapped segment does, so FirstFit and
// the CanAdd/NextBoundaryAfter loop reach identical decisions. A
// duration <= 0 or negative amount returns -1 (no feasible window, as
// for CanAdd); an amount exceeding the ceiling on its own also returns
// -1 rather than searching an empty horizon.
func (p *Profile) FirstFit(from, duration int, amount float64) int {
	if duration <= 0 || amount < 0 {
		return -1
	}
	if p.limit == Unlimited {
		return from
	}
	if amount > p.limit+1e-9 {
		return -1
	}
	t := from
	i := p.segmentBefore(from)
	if i < 0 {
		i = 0 // the zero-load stretch before the first boundary never blocks
	}
	for ; i < len(p.times); i++ {
		if p.times[i] >= t+duration {
			return t // window closed before this segment: no blocker overlaps
		}
		if p.loads[i]+amount > p.limit+1e-9 {
			// Blocking segment inside the window: the window must start
			// at or after its end, which is the next boundary (the last
			// segment has load zero by construction — every reservation
			// ends — so a blocking segment always has a successor).
			t = p.times[i+1]
		}
	}
	return t
}
