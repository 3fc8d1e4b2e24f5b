// Package sim is a discrete-event simulator for retrieval-point (RP)
// propagation through a protection hierarchy. Where package hierarchy
// derives closed-form worst-case bounds (§3.3.2–3.3.3 of the paper), this
// simulator plays the actual RP lifecycle — accumulation windows closing,
// holds, propagations, retention expiry — on a simulated clock, injects
// failures at arbitrary instants, and measures the data loss that a
// recovery would really incur.
//
// Its purpose is validation (the paper's own future work: "validate these
// models using measurements of recovery behavior"): for every failure
// instant, the simulated loss must never exceed the analytic worst case,
// and the supremum over failure instants should approach it.
package sim

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"stordep/internal/hierarchy"
)

// RP is one retrieval point held at a level.
type RP struct {
	// Cut is the instant the RP reflects: updates up to Cut are in it.
	Cut time.Duration
	// AvailableAt is when the RP finished propagating to the level.
	AvailableAt time.Duration
	// ExpiresAt is when retention discards it.
	ExpiresAt time.Duration
	// Secondary marks an incremental (partial) RP from a cyclic policy's
	// secondary window; a restore from it also needs its base full.
	Secondary bool
	// Phantom marks an RP whose capture silently failed (a silent
	// non-write fault, or corrupt source data): the level reported
	// success, the RP occupies the schedule and still propagates its
	// phantomness upward, but no restore can use it.
	Phantom bool
}

// Covers reports whether the RP is usable at observation time `at`.
func (r RP) Covers(at time.Duration) bool {
	return r.AvailableAt <= at && at < r.ExpiresAt
}

// event is a scheduled RP propagation start at one level.
type event struct {
	at    time.Duration
	level int // 1-based
	// secondary marks a cyclic policy's incremental window.
	secondary bool
	// seq breaks ties deterministically (FIFO for equal times).
	seq int64
}

// eventQueue is a min-heap on (at, level, seq). The order is total, so
// the pop sequence does not depend on the heap's internal layout.
type eventQueue []event

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	// Lower levels fire first at equal instants so a level snapshotting
	// its source sees data that lands "at the same time" (the aligned
	// schedules of Figure 2 depend on this).
	if q[i].level != q[j].level {
		return q[i].level < q[j].level
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(e event) {
	*q = append(*q, e)
	h := *q
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.Less(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h.Less(r, m) {
			m = r
		}
		if !h.Less(m, i) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	*q = h
	return top
}

// Outage suspends one level's RP propagation for a time span: windows
// that close inside [From, To) produce no RP (the technique is out of
// service). Multiple outages may be registered, including overlapping
// windows on distinct levels (compound failures) or on the same level.
// Used to validate the analytic degraded-mode model.
type Outage struct {
	Level    int // 1-based
	From, To time.Duration
	// AbortInFlight additionally destroys RPs whose hold+propagation span
	// overlaps the outage: a failure landing mid-propagation aborts the
	// transfer instead of letting it complete. The corresponding analytic
	// bound must then charge the level's transfer lag on top of the
	// outage duration (the newest surviving RP finished propagating
	// before the outage began).
	AbortInFlight bool
}

// SilentFault makes one level's captures lie for a time span: windows
// that close inside [From, To) report success and schedule normally, but
// the RPs they produce are phantoms — present in the schedule, useless
// at restore. Unlike an Outage the failure is invisible to the level
// itself, which is what makes the silent non-write and correlated
// corruption operator faults undetectable by status checks alone.
type SilentFault struct {
	Level    int // 1-based
	From, To time.Duration
}

// Simulator replays RP propagation for a hierarchy chain.
type Simulator struct {
	chain hierarchy.Chain
	// levels holds every RP each level produced, retained or expired, in
	// window-close order (the order RPs and Available report).
	levels [][]RP
	// index is the per-level query index Run builds over levels.
	index   []levelIndex
	outages []Outage
	silents []SilentFault
	ran     time.Duration
}

// New validates the chain and returns a simulator.
func New(c hierarchy.Chain) (*Simulator, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	chain := make(hierarchy.Chain, len(c))
	copy(chain, c)
	return &Simulator{
		chain:  chain,
		levels: make([][]RP, len(c)),
	}, nil
}

// ErrNotRun is returned by queries before Run.
var ErrNotRun = errors.New("sim: Run must be called first")

// AddOutage registers a propagation outage; it must be called before Run.
func (s *Simulator) AddOutage(o Outage) error {
	if s.ran > 0 {
		return errors.New("sim: outages must be added before Run")
	}
	if o.Level < 1 || o.Level > len(s.chain) {
		return fmt.Errorf("sim: outage level %d out of range", o.Level)
	}
	if o.To <= o.From || o.From < 0 {
		return fmt.Errorf("sim: outage window [%v, %v) invalid", o.From, o.To)
	}
	s.outages = append(s.outages, o)
	return nil
}

// AddSilentFault registers a silent capture fault; it must be called
// before Run.
func (s *Simulator) AddSilentFault(f SilentFault) error {
	if s.ran > 0 {
		return errors.New("sim: silent faults must be added before Run")
	}
	if f.Level < 1 || f.Level > len(s.chain) {
		return fmt.Errorf("sim: silent fault level %d out of range", f.Level)
	}
	if f.To <= f.From || f.From < 0 {
		return fmt.Errorf("sim: silent fault window [%v, %v) invalid", f.From, f.To)
	}
	s.silents = append(s.silents, f)
	return nil
}

// levelCursor is Run's forward-only state for one level. Its outages and
// silent faults are each sorted by From and walked as the clock
// advances; started windows (From ≤ now) only matter through the latest
// end among them.
type levelCursor struct {
	outages        []Outage
	silents        []SilentFault
	nextOut        int           // first outage not yet started
	nextSil        int           // first silent fault not yet started
	outEnd, silEnd time.Duration // latest To among started windows
	// live bounds newest's scan of this level: every RP below it has
	// expired, and stays expired because the clock only moves forward.
	live int
}

// advance moves both cursors past the windows that have started by `at`.
func (c *levelCursor) advance(at time.Duration) {
	for ; c.nextOut < len(c.outages) && c.outages[c.nextOut].From <= at; c.nextOut++ {
		c.outEnd = max(c.outEnd, c.outages[c.nextOut].To)
	}
	for ; c.nextSil < len(c.silents) && c.silents[c.nextSil].From <= at; c.nextSil++ {
		c.silEnd = max(c.silEnd, c.silents[c.nextSil].To)
	}
}

// dropped reports whether a window closing at `at` and landing at
// `avail` produces nothing: it closes inside an outage, or its transfer
// is in flight when an AbortInFlight outage starts. Call advance(at)
// first.
func (c *levelCursor) dropped(at, avail time.Duration) bool {
	if c.outEnd > at {
		return true // technique out of service: the window produces nothing
	}
	for _, o := range c.outages[c.nextOut:] {
		if o.From >= avail {
			break
		}
		if o.AbortInFlight {
			return true // the transfer was in flight when the outage struck
		}
	}
	return false
}

// cursors splits the registered outages and silent faults into per-level
// lists sorted by From.
func (s *Simulator) cursors() []levelCursor {
	cur := make([]levelCursor, len(s.chain))
	outs := slices.Clone(s.outages)
	slices.SortFunc(outs, func(a, b Outage) int {
		return cmp.Or(cmp.Compare(a.Level, b.Level), cmp.Compare(a.From, b.From))
	})
	for len(outs) > 0 {
		n := 1
		for n < len(outs) && outs[n].Level == outs[0].Level {
			n++
		}
		cur[outs[0].Level-1].outages = outs[:n:n]
		outs = outs[n:]
	}
	sils := slices.Clone(s.silents)
	slices.SortFunc(sils, func(a, b SilentFault) int {
		return cmp.Or(cmp.Compare(a.Level, b.Level), cmp.Compare(a.From, b.From))
	})
	for len(sils) > 0 {
		n := 1
		for n < len(sils) && sils[n].Level == sils[0].Level {
			n++
		}
		cur[sils[0].Level-1].silents = sils[:n:n]
		sils = sils[n:]
	}
	return cur
}

// Run simulates RP propagation from time zero (cold start: no RPs exist)
// until the given horizon. It may be called once per Simulator.
func (s *Simulator) Run(until time.Duration) error {
	if s.ran > 0 {
		return errors.New("sim: already run")
	}
	if until <= 0 {
		return fmt.Errorf("sim: horizon must be positive, got %v", until)
	}
	// A level runs one event series per window of its cycle, and each
	// series fires at most once per cycle.
	series := 0
	for j, lvl := range s.chain {
		n := 1
		if lvl.Policy.Secondary != nil {
			n += lvl.Policy.CycleCnt
		}
		series += n
		s.levels[j] = make([]RP, 0, (int(until/lvl.Policy.CyclePeriod())+1)*n)
	}
	q := make(eventQueue, 0, series)
	var seq int64
	push := func(e event) {
		e.seq = seq
		seq++
		q.push(e)
	}
	// Seed the first cycle of every level. Primary windows fire at
	// multiples of the cycle period; secondary (incremental) windows fire
	// between them. Each level is phase-aligned to fire just after fresh
	// data lands from below (the paper's Figure 2 construction: backup
	// propagation begins right after the Saturday-midnight split; vault
	// shipments catch the just-expired backup), which is what makes the
	// closed-form worst case Σ(holdW+propW)+accW achievable.
	for j := 1; j <= len(s.chain); j++ {
		pol := s.chain[j-1].Policy
		phase := s.chain.CumTransferLag(j - 1)
		push(event{at: phase + pol.Primary.AccW, level: j})
		if pol.Secondary != nil {
			for k := 1; k <= pol.CycleCnt; k++ {
				push(event{
					at:        phase + pol.Primary.AccW + time.Duration(k)*pol.Secondary.AccW,
					level:     j,
					secondary: true,
				})
			}
		}
	}
	cur := s.cursors()
	for len(q) > 0 {
		e := q.pop()
		if e.at > until {
			break
		}
		s.fire(e, cur)
		// Reschedule one cycle later.
		next := e
		next.at += s.chain[e.level-1].Policy.CyclePeriod()
		push(next)
	}
	s.index = make([]levelIndex, len(s.levels))
	for j, rps := range s.levels {
		s.index[j] = newLevelIndex(rps, s.chain[j].Policy.Secondary != nil)
	}
	s.ran = until
	return nil
}

// fire executes one propagation: the level snapshots the newest content
// available below it and the RP becomes available after hold+prop.
func (s *Simulator) fire(e event, cur []levelCursor) {
	pol := &s.chain[e.level-1].Policy
	win := pol.Primary
	if e.secondary {
		win = *pol.Secondary
	}
	avail := e.at + win.HoldW + win.PropW
	c := &cur[e.level-1]
	c.advance(e.at)
	if c.dropped(e.at, avail) {
		return
	}
	// What does this RP reflect? Level 1 draws from the always-current
	// primary copy: the RP covers updates through the window close (now).
	// Deeper levels forward the newest RP available below at this instant.
	// A silent fault poisons the capture without changing the schedule,
	// and a phantom source poisons every copy taken from it.
	cut := e.at
	phantom := c.silEnd > e.at
	if e.level > 1 {
		below, ok := s.newest(e.level-1, e.at, &cur[e.level-2].live)
		if !ok {
			return // nothing to propagate yet (cold start)
		}
		cut = below.Cut
		phantom = phantom || below.Phantom
	}
	s.levels[e.level-1] = append(s.levels[e.level-1], RP{
		Cut:         cut,
		AvailableAt: avail,
		ExpiresAt:   avail + pol.RetW,
		Secondary:   e.secondary,
		Phantom:     phantom,
	})
}

// newest returns the freshest RP usable at `at` on the level, the first
// in window-close order among equal cuts. Window-close order is not
// availability order for cyclic policies (a slow full can land after a
// later fast incremental), so it scans every RP from *live on, first
// advancing *live past the RPs that have expired by `at`.
func (s *Simulator) newest(level int, at time.Duration, live *int) (RP, bool) {
	rps := s.levels[level-1]
	for *live < len(rps) && rps[*live].ExpiresAt <= at {
		*live++
	}
	var best RP
	found := false
	for _, rp := range rps[*live:] {
		if rp.Covers(at) && (!found || rp.Cut > best.Cut) {
			best, found = rp, true
		}
	}
	return best, found
}

// Available returns the RPs usable at observation time `at` on a level.
func (s *Simulator) Available(level int, at time.Duration) ([]RP, error) {
	if s.ran == 0 {
		return nil, ErrNotRun
	}
	if level < 1 || level > len(s.chain) {
		return nil, fmt.Errorf("sim: level %d out of range", level)
	}
	var out []RP
	for _, rp := range s.levels[level-1] {
		if rp.Covers(at) {
			out = append(out, rp)
		}
	}
	return out, nil
}

// levelIndex answers restore queries on one level without scanning it.
type levelIndex struct {
	// order lists the level's RP indexes sorted by (Cut, window-close
	// index); nil when the level is already in cut order.
	order []int32
	// maxExp[k] is the latest ExpiresAt among the first k+1 RPs in
	// order: once it is ≤ failAt, no RP at or before k covers failAt.
	maxExp []time.Duration
	// base[i] is the index of RP i's base full: the newest full whose cut
	// does not postdate RP i's, the first in window-close order among
	// equal cuts, or -1. A cumulative incremental covers updates since
	// the last full only, so no older full can substitute. nil on levels
	// without incrementals.
	base []int32
}

// at maps a position in cut order to an RP index.
func (ix *levelIndex) at(k int) int {
	if ix.order == nil {
		return k
	}
	return int(ix.order[k])
}

func newLevelIndex(rps []RP, cyclic bool) levelIndex {
	var ix levelIndex
	for i := 1; i < len(rps); i++ {
		if rps[i].Cut < rps[i-1].Cut {
			ix.order = make([]int32, len(rps))
			for k := range ix.order {
				ix.order[k] = int32(k)
			}
			slices.SortFunc(ix.order, func(a, b int32) int {
				return cmp.Or(cmp.Compare(rps[a].Cut, rps[b].Cut), cmp.Compare(a, b))
			})
			break
		}
	}
	ix.maxExp = make([]time.Duration, len(rps))
	var latest time.Duration
	for k := range rps {
		latest = max(latest, rps[ix.at(k)].ExpiresAt)
		ix.maxExp[k] = latest
	}
	if !cyclic {
		return ix
	}
	ix.base = make([]int32, len(rps))
	base := -1
	// Walk groups of equal cut: a full anywhere in the group is a valid
	// base for every RP in it, including incrementals earlier in window
	// order.
	for k := 0; k < len(rps); {
		cut := rps[ix.at(k)].Cut
		end := k + 1
		for end < len(rps) && rps[ix.at(end)].Cut == cut {
			end++
		}
		for p := k; p < end; p++ {
			if i := ix.at(p); !rps[i].Secondary && (base < 0 || rps[base].Cut < cut) {
				base = i
			}
		}
		for p := k; p < end; p++ {
			ix.base[ix.at(p)] = int32(base)
		}
		k = end
	}
	return ix
}

// serving returns the index of the RP on the level that serves a restore
// at failAt to the target instant — the usable RP with the newest cut not
// after target, the first in window-close order among equal cuts — or -1.
//
// Usable means the RP covers failAt and holds real data (phantoms from
// silent faults still occupy the schedule, and still propagate because
// the level believes them good, but cannot serve), and, for an
// incremental, so does its base full (an incremental that lands while
// its full is still propagating is useless until the full arrives).
func (s *Simulator) serving(level int, failAt, target time.Duration) int {
	rps, ix := s.levels[level-1], &s.index[level-1]
	// Binary search for the first position whose cut postdates target.
	lo, hi := 0, len(rps)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if rps[ix.at(m)].Cut <= target {
			lo = m + 1
		} else {
			hi = m
		}
	}
	best := -1
	for k := lo - 1; k >= 0 && ix.maxExp[k] > failAt; k-- {
		i := ix.at(k)
		rp := rps[i]
		if best >= 0 && rp.Cut != rps[best].Cut {
			break
		}
		if rp.Phantom || !rp.Covers(failAt) {
			continue
		}
		if rp.Secondary {
			if b := ix.base[i]; b < 0 || rps[b].Phantom || !rps[b].Covers(failAt) {
				continue
			}
		}
		best = i // walking backward, so the last hit in a cut group has the lowest index
	}
	return best
}

// serve resolves the serving RP across the surviving levels: the newest
// cut wins, and the first level in surviving order among equal cuts.
// level is 0 when no usable RP survives.
func (s *Simulator) serve(surviving []int, failAt, targetAge time.Duration) (level, idx int) {
	if s.ran == 0 || failAt > s.ran {
		return 0, 0
	}
	target := failAt - targetAge
	if target < 0 {
		return 0, 0
	}
	for _, j := range surviving {
		if j < 1 || j > len(s.chain) {
			continue
		}
		if i := s.serving(j, failAt, target); i >= 0 && (level == 0 || s.levels[j-1][i].Cut > s.levels[level-1][idx].Cut) {
			level, idx = j, i
		}
	}
	return level, idx
}

// Loss measures the data loss a recovery would incur if a failure struck
// at failAt with the given surviving levels, restoring to the target
// instant failAt-targetAge. The serving RP is the newest usable one
// (across surviving levels) whose cut does not postdate the target; the
// loss is target-cut. ok is false when no usable RP survives: the object
// is lost.
func (s *Simulator) Loss(surviving []int, failAt, targetAge time.Duration) (loss time.Duration, level int, ok bool) {
	level, idx := s.serve(surviving, failAt, targetAge)
	if level == 0 {
		return 0, 0, false
	}
	return failAt - targetAge - s.levels[level-1][idx].Cut, level, true
}

// Stats summarizes a loss study across failure instants.
type Stats struct {
	// Samples is the number of failure instants evaluated.
	Samples int
	// Unrecoverable counts instants where no usable RP survived.
	Unrecoverable int
	// Max and Mean summarize the loss over recoverable instants.
	Max  time.Duration
	Mean time.Duration
}

// LossStudy sweeps failure instants from `from` to `to` (inclusive) every
// `step` and aggregates the measured losses.
func (s *Simulator) LossStudy(surviving []int, targetAge, from, to, step time.Duration) (Stats, error) {
	if s.ran == 0 {
		return Stats{}, ErrNotRun
	}
	if step <= 0 || to < from {
		return Stats{}, fmt.Errorf("sim: bad study window [%v, %v] step %v", from, to, step)
	}
	var st Stats
	var sum time.Duration
	for at := from; at <= to; at += step {
		st.Samples++
		loss, _, ok := s.Loss(surviving, at, targetAge)
		if !ok {
			st.Unrecoverable++
			continue
		}
		if loss > st.Max {
			st.Max = loss
		}
		sum += loss
	}
	if n := st.Samples - st.Unrecoverable; n > 0 {
		st.Mean = sum / time.Duration(n)
	}
	return st, nil
}

// WarmUp returns a horizon after which every level is in steady state:
// each has filled its retention and absorbed the full propagation lag.
func (s *Simulator) WarmUp() time.Duration {
	var warm time.Duration
	for j := 1; j <= len(s.chain); j++ {
		pol := s.chain[j-1].Policy
		candidate := s.chain.CumTransferLag(j) +
			time.Duration(pol.RetCnt+1)*pol.CyclePeriod() + pol.RetW
		if candidate > warm {
			warm = candidate
		}
	}
	return warm
}

// Chain returns the simulated chain.
func (s *Simulator) Chain() hierarchy.Chain { return s.chain }

// Outages returns a copy of the registered outages.
func (s *Simulator) Outages() []Outage {
	return append([]Outage(nil), s.outages...)
}

// SilentFaults returns a copy of the registered silent faults.
func (s *Simulator) SilentFaults() []SilentFault {
	return append([]SilentFault(nil), s.silents...)
}

// RPs returns a copy of every RP the level produced during Run, retained
// or expired, in window-close order. Callers use it to probe edge
// instants (availability and expiry boundaries) without re-deriving the
// schedule.
func (s *Simulator) RPs(level int) ([]RP, error) {
	if s.ran == 0 {
		return nil, ErrNotRun
	}
	if level < 1 || level > len(s.chain) {
		return nil, fmt.Errorf("sim: level %d out of range", level)
	}
	return append([]RP(nil), s.levels[level-1]...), nil
}
