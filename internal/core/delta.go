package core

import (
	"fmt"

	"stordep/internal/failure"
	"stordep/internal/units"
)

// This file implements incremental re-assessment for coordinate-descent
// style callers (internal/opt's Tune): a knob changes one hierarchy
// level or one device spec at a time, so re-capturing only the changed
// levels' demands and re-folding them with the cached records of every
// unchanged level (RowBuilder.Fill) reproduces the full Build-and-assess
// outcome at a fraction of the cost. A DeltaAssessor score may replace a
// legacy score without perturbing a search's argmin or tie-breaks.

// DeltaAssessor incrementally re-assesses variants of one base design:
// AssessDelta accepts a design differing from the base in level
// policies and representable spec fields, re-extracts only the changed
// levels' demand records, and re-folds the cached remainder through the
// columnar batch kernel. Obtain one with NewDeltaAssessor. A
// DeltaAssessor owns per-call scratch buffers and must not be shared
// between concurrent calls; the base design must not be mutated while
// the assessor is alive.
type DeltaAssessor struct {
	rb    *RowBuilder
	fleet *CaptureFleet
	touch Touch
	repl  []LevelFrag // re-extracted fragments for changed levels
	rs    *RowScratch
	cols  *Cols
	bs    BatchScratch
}

// NewDeltaAssessor builds the incremental assessor for a base design and
// scenario set: it builds the base system once, compiles the batch
// kernel and the row builder, and verifies the cached state reproduces
// the legacy assessment of the base bit-for-bit. Any failure returns an
// error — the caller then keeps using the legacy path.
func NewDeltaAssessor(base *Design, scs []failure.Scenario) (*DeltaAssessor, error) {
	sys, err := Build(base)
	if err != nil {
		return nil, fmt.Errorf("core: delta: base design: %w", err)
	}
	kern, err := NewBatchKernel(sys, scs)
	if err != nil {
		return nil, fmt.Errorf("core: delta: %w", err)
	}
	rb, err := NewRowBuilder(base, kern)
	if err != nil {
		return nil, fmt.Errorf("core: delta: %w", err)
	}
	fleet, err := rb.NewFleet()
	if err != nil {
		return nil, fmt.Errorf("core: delta: %w", err)
	}
	da := &DeltaAssessor{
		rb:    rb,
		fleet: fleet,
		repl:  make([]LevelFrag, kern.Levels()),
		rs:    rb.NewScratch(),
		cols:  kern.NewCols(1),
	}

	// Construction self-check: the zero-change assessment must reproduce
	// the legacy path exactly — outlay total and every scenario brief.
	outlays, briefs, ok := da.AssessDelta(base)
	if !ok {
		return nil, fmt.Errorf("core: delta: base design not re-assessable")
	}
	if outlays != sys.outlaysTotal {
		return nil, fmt.Errorf("core: delta: outlay mismatch: %v vs %v", outlays, sys.outlaysTotal)
	}
	var scratch Scratch
	for si, sc := range scs {
		want, err := sys.AssessBrief(sc, &scratch)
		if err != nil {
			return nil, fmt.Errorf("core: delta: base brief: %w", err)
		}
		if briefs[si] != want {
			return nil, fmt.Errorf("core: delta: brief mismatch under scenario %d", si)
		}
	}
	return da, nil
}

// AssessDelta assesses a variant of the base design, re-extracting only
// the levels that changed. It returns the variant's outlay total, one
// Brief per kernel scenario (a scratch slice, valid until the next
// call), and ok=true. ok=false means the variant is outside the delta
// protocol — a change the cached tables cannot carry, a validation
// error, or an over-capacity fleet — and the caller must assess it
// through the legacy path (which also reproduces the exact error).
func (da *DeltaAssessor) AssessDelta(d *Design) (units.Money, []Brief, bool) {
	rb, rs := da.rb, da.rs
	if !rb.Diff(d, &da.touch) {
		return 0, nil, false
	}
	rb.resetScratch(rs)
	for _, di := range da.touch.Devices {
		rs.Specs[di] = &d.Devices[di].Spec
	}
	for _, j := range da.touch.Levels {
		f, err := rb.Fragment(d.Levels[j], da.fleet, da.repl[j].Demands[:0])
		if err != nil {
			return 0, nil, false
		}
		da.repl[j] = f
		rs.Frags[j] = &da.repl[j]
	}
	if !rb.Fill(rs, da.cols, 0) {
		return 0, nil, false
	}
	rb.kern.AssessBatch(1, da.cols, &da.bs)
	return da.cols.OutlaysTotal[0], da.bs.Briefs, true
}

// Scenarios returns the assessor's scenario set (shared slice,
// read-only); AssessDelta's briefs are indexed to match.
func (da *DeltaAssessor) Scenarios() []failure.Scenario { return da.rb.kern.Scenarios() }
