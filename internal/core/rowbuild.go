package core

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"stordep/internal/device"
	"stordep/internal/protect"
	"stordep/internal/units"
	"stordep/internal/workload"
)

// This file is the one place a candidate design becomes a batch-kernel
// row without a Build. A RowBuilder, compiled once per base design,
// decides which changes the kernel tables can carry (Diff), captures a
// hierarchy level's contribution on a clean device fleet (Fragment), and
// folds fragments into a Cols row (Fill). Both incremental callers —
// DeltaAssessor and internal/opt's compiled knob space — fill rows
// through it, so a change to Build's fold order is mirrored here alone.
//
// Build order is what the fold replicates: demands register per device
// primary first, then levels nearest first; a device's outlay rows open
// in that registration order, the first carrying the fixed cost; spare
// discounts apply per row; and the facility retainer charges the summed
// base rows of the devices at the primary site. Every float sum is
// therefore bit-identical to System.Outlays and AvailableBandwidth of
// the built candidate.

// DemandRec is one captured device demand with the device resolved to
// its design index and the technique name interned.
type DemandRec struct {
	Dev  int32
	Tech int32
	BW   units.Rate
	Cap  units.ByteSize
	Ship float64
}

// Marginal is the annual cost the demand adds on a device with spec sp
// beyond the fixed cost, as device.Device.Outlays charges it. An
// interconnect's bandwidth is charged at provisioned capacity (see
// FixedOutlay), not per demand.
func (r *DemandRec) Marginal(sp *device.Spec) units.Money {
	bw := r.BW
	if sp.Kind == device.KindInterconnect {
		bw = 0
	}
	return sp.Cost.Annual(sp.RawCapacityFor(r.Cap), bw, r.Ship) - sp.Cost.Fixed
}

// FixedOutlay is the cost the first technique on a device carries: the
// fixed cost plus an interconnect's provisioned-bandwidth cost.
func FixedOutlay(sp *device.Spec) units.Money {
	first := sp.Cost.Fixed
	if sp.Kind == device.KindInterconnect {
		first += units.Money(sp.Cost.PerMBPerSec * sp.MaxBandwidth().MBPS())
	}
	return first
}

// LevelFrag is everything one hierarchy level contributes to a row: the
// kernel's level columns plus the level's device demands in
// registration order.
type LevelFrag struct {
	Lag, AccW, RetSpan time.Duration
	Restore            units.ByteSize
	Copy, Read         int32
	Transport          int32 // -1 when the technique names no transport
	Name               int32 // interned level name, for the duplicate check
	Demands            []DemandRec
}

// CaptureFleet is a reusable demand-capture fleet: one clean device per
// base spec, keyed by name, in design order. Demands are policy and
// workload arithmetic only — no technique reads its devices' specs or
// prior demands — so a clean-fleet capture yields exactly the records
// Build's shared fleet receives, in the same order, whatever specs the
// candidate carries. A CaptureFleet must not be shared between
// concurrent Fragment calls.
type CaptureFleet struct {
	byName protect.DeviceMap
	devs   []*device.Device
}

// RowBuilder turns variants of one base design into batch-kernel rows.
// Obtain one with NewRowBuilder. It is safe for concurrent use with
// distinct CaptureFleets and RowScratches; the base design must not be
// mutated while the builder is alive.
type RowBuilder struct {
	base     *Design
	kern     *BatchKernel
	nLevels  int
	nDevices int
	maxRows  int // distinct outlay rows per device: primary + one per level

	baseSpecs []device.Spec
	primary   []DemandRec
	baseFrags []LevelFrag

	// Facility retainer: covered[d] marks devices whose base outlays the
	// retainer charges costFactor on.
	retainer   bool
	costFactor float64
	covered    []bool

	mu    sync.Mutex
	names map[string]int32
}

// NewRowBuilder records what every row of base's variants starts from:
// the base specs, the primary's demands, each base level's fragment, the
// facility-retainer coverage, and a name interner. kern must be the
// batch kernel of base's built system.
func NewRowBuilder(base *Design, kern *BatchKernel) (*RowBuilder, error) {
	if len(base.Levels) != kern.nLevels || len(base.Devices) != kern.nDevices {
		return nil, fmt.Errorf("core: row builder: kernel shape differs from the base design")
	}
	rb := &RowBuilder{
		base:      base,
		kern:      kern,
		nLevels:   kern.nLevels,
		nDevices:  kern.nDevices,
		maxRows:   kern.nLevels + 1,
		baseSpecs: make([]device.Spec, kern.nDevices),
		baseFrags: make([]LevelFrag, kern.nLevels),
		covered:   make([]bool, kern.nDevices),
		names:     make(map[string]int32),
	}
	for i, pd := range base.Devices {
		if kern.DeviceIndex(pd.Spec.Name) != i {
			return nil, fmt.Errorf("core: row builder: kernel device order differs at %q", pd.Spec.Name)
		}
		rb.baseSpecs[i] = pd.Spec
	}
	fl, err := rb.NewFleet()
	if err != nil {
		return nil, fmt.Errorf("core: row builder: %w", err)
	}
	if err := base.Primary.ApplyDemands(base.Workload, fl.byName); err != nil {
		return nil, fmt.Errorf("core: row builder: primary: %w", err)
	}
	rb.primary = rb.capture(nil, fl)
	for j, tech := range base.Levels {
		f, err := rb.Fragment(tech, fl, nil)
		if err != nil {
			return nil, fmt.Errorf("core: row builder: level %d: %w", j+1, err)
		}
		rb.baseFrags[j] = f
	}
	if base.Facility != nil && base.Facility.CostFactor != 0 {
		rb.retainer = true
		rb.costFactor = base.Facility.CostFactor
		primarySite := base.PrimaryPlacement().Site
		for i, pd := range base.Devices {
			rb.covered[i] = pd.Placement.Site != "" && pd.Placement.Site == primarySite
		}
	}
	return rb, nil
}

// BaseSpecs returns the base design's device specs in design order
// (shared slice, read-only).
func (rb *RowBuilder) BaseSpecs() []device.Spec { return rb.baseSpecs }

// BaseFrags returns the base design's level fragments (shared slice,
// read-only).
func (rb *RowBuilder) BaseFrags() []LevelFrag { return rb.baseFrags }

// PrimaryDemands returns the primary copy's demand records, which every
// row folds first (shared slice, read-only).
func (rb *RowBuilder) PrimaryDemands() []DemandRec { return rb.primary }

// RetainerFactor returns the facility-retainer factor charged on device
// di's base outlays, or 0 when the retainer does not cover it.
func (rb *RowBuilder) RetainerFactor(di int) float64 {
	if rb.retainer && rb.covered[di] {
		return rb.costFactor
	}
	return 0
}

// NewFleet builds a demand-capture fleet for Fragment.
func (rb *RowBuilder) NewFleet() (*CaptureFleet, error) {
	fl := &CaptureFleet{
		byName: make(protect.DeviceMap, rb.nDevices),
		devs:   make([]*device.Device, rb.nDevices),
	}
	for i := range rb.baseSpecs {
		dev, err := device.New(rb.baseSpecs[i])
		if err != nil {
			return nil, err
		}
		fl.byName[rb.baseSpecs[i].Name] = dev
		fl.devs[i] = dev
	}
	return fl, nil
}

func (rb *RowBuilder) intern(name string) int32 {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	id, ok := rb.names[name]
	if !ok {
		id = int32(len(rb.names))
		rb.names[name] = id
	}
	return id
}

// capture appends the fleet's accumulated demands to out, in device
// order.
func (rb *RowBuilder) capture(out []DemandRec, fl *CaptureFleet) []DemandRec {
	for di, dev := range fl.devs {
		dev.ScanDemands(func(dem device.Demand) {
			out = append(out, DemandRec{
				Dev:  int32(di),
				Tech: rb.intern(dem.Technique),
				BW:   dem.Bandwidth,
				Cap:  dem.Capacity,
				Ship: dem.ShipmentsPerYear,
			})
		})
	}
	return out
}

// Fragment captures one level's contribution from technique tech on fl,
// applying the validation Build would; an error means the level state
// cannot ride the kernel tables and the candidate must take the legacy
// path, which reproduces the exact error. Demand records are appended to
// buf (may be nil), whose backing array the fragment adopts.
func (rb *RowBuilder) Fragment(tech protect.Technique, fl *CaptureFleet, buf []DemandRec) (LevelFrag, error) {
	f := LevelFrag{Transport: -1}
	if err := tech.Validate(); err != nil {
		return f, err
	}
	lv := tech.Level()
	if lv.Name == "" {
		return f, fmt.Errorf("core: level has no name")
	}
	if err := lv.Policy.Validate(); err != nil {
		return f, err
	}
	f.Lag = lv.Policy.TransferLag()
	f.AccW = lv.Policy.EffectiveAccW()
	f.RetSpan = lv.Policy.RetentionSpan()
	f.Restore = tech.RestoreSize(rb.base.Workload)
	f.Name = rb.intern(lv.Name)
	ci := rb.kern.DeviceIndex(tech.CopyDevice())
	ri := rb.kern.DeviceIndex(tech.ReadDevice())
	if ci < 0 || ri < 0 {
		return f, fmt.Errorf("core: level %q references unknown device", lv.Name)
	}
	f.Copy, f.Read = int32(ci), int32(ri)
	if name := tech.TransportDevice(); name != "" {
		// Unlike a missing transport in a built system (silently "no
		// transport" to the recovery model), Design.Validate rejects a
		// transport name absent from the fleet, so the legacy path must
		// reproduce that error.
		ti := rb.kern.DeviceIndex(name)
		if ti < 0 {
			return f, fmt.Errorf("core: level %q transport %q unknown", lv.Name, name)
		}
		f.Transport = int32(ti)
	}
	for _, dev := range fl.devs {
		dev.ResetDemands()
	}
	if err := tech.ApplyDemands(rb.base.Workload, fl.byName); err != nil {
		return f, err
	}
	f.Demands = rb.capture(buf, fl)
	return f, nil
}

// Touch is Diff's report: the hierarchy levels and device specs a
// candidate changes relative to the base, ascending.
type Touch struct {
	Levels  []int
	Devices []int
}

// Diff reports whether candidate d differs from the base only in ways
// the kernel tables can carry, filling t (its slices are reused) with
// the changed levels and device specs. It refuses a renamed design,
// workload, requirements, primary or facility edits, shape changes,
// moved or renamed devices, spec changes to what the kernel froze
// (kind, fixed delay, spare provisioning), and multi-sited
// reconfiguration. Equality is deep equality throughout, field by field
// for the built-in techniques so the common case does not allocate.
func (rb *RowBuilder) Diff(d *Design, t *Touch) bool {
	t.Levels, t.Devices = t.Levels[:0], t.Devices[:0]
	b := rb.base
	if d.Name != b.Name ||
		!workloadSame(d.Workload, b.Workload) ||
		d.Requirements != b.Requirements ||
		!primaryEqual(d.Primary, b.Primary) ||
		!facilityEqual(d.Facility, b.Facility) ||
		len(d.Levels) != rb.nLevels || len(d.Devices) != rb.nDevices {
		return false
	}
	for i := range d.Devices {
		dp, bp := &d.Devices[i], &b.Devices[i]
		if dp.Placement != bp.Placement || dp.SparePlacement != bp.SparePlacement {
			return false
		}
		if dp.Spec == bp.Spec {
			continue
		}
		// The kernel froze name resolution, kinds, fixed delays and spare
		// provisioning; everything else about a spec (slot counts, rates,
		// costs, overheads) is re-derived per row.
		if dp.Spec.Name != bp.Spec.Name || dp.Spec.Kind != bp.Spec.Kind ||
			dp.Spec.Delay != bp.Spec.Delay || dp.Spec.Spare != bp.Spec.Spare {
			return false
		}
		t.Devices = append(t.Devices, i)
	}
	for j := range d.Levels {
		if levelEqual(d.Levels[j], b.Levels[j]) {
			continue
		}
		dm, dok := d.Levels[j].(protect.MultiSited)
		bm, bok := b.Levels[j].(protect.MultiSited)
		if dok != bok {
			return false
		}
		if dok {
			// Multi-sited survival is placement arithmetic baked into the
			// kernel; the fragment set and threshold must not move.
			if reflect.TypeOf(d.Levels[j]) != reflect.TypeOf(b.Levels[j]) ||
				dm.SurvivalThreshold() != bm.SurvivalThreshold() ||
				!reflect.DeepEqual(dm.CopyDevices(), bm.CopyDevices()) {
				return false
			}
		}
		t.Levels = append(t.Levels, j)
	}
	return true
}

// workloadSame is reflect.DeepEqual on two workloads without the
// allocation: Workload.Equal plus the nil-versus-empty batch curve
// distinction DeepEqual draws.
func workloadSame(w, v *workload.Workload) bool {
	return w.Equal(v) && (w == nil || (w.BatchCurve == nil) == (v.BatchCurve == nil))
}

// levelEqual reports whether a candidate level is deeply equal to its
// base counterpart. The built-in techniques are compared field by field
// (policies via Policy.Equal); anything else falls back to
// reflect.DeepEqual.
func levelEqual(x, y protect.Technique) bool {
	switch a := x.(type) {
	case *protect.SplitMirror:
		b, ok := y.(*protect.SplitMirror)
		return ok && a.InstanceName == b.InstanceName && a.Array == b.Array &&
			a.Pol.Equal(&b.Pol)
	case *protect.Backup:
		b, ok := y.(*protect.Backup)
		return ok && a.InstanceName == b.InstanceName && a.SourceArray == b.SourceArray &&
			a.Target == b.Target && a.Pol.Equal(&b.Pol)
	case *protect.Vaulting:
		b, ok := y.(*protect.Vaulting)
		return ok && a.InstanceName == b.InstanceName && a.BackupDevice == b.BackupDevice &&
			a.Vault == b.Vault && a.Transport == b.Transport &&
			a.BackupRetW == b.BackupRetW && a.Pol.Equal(&b.Pol)
	}
	return reflect.DeepEqual(x, y)
}

func primaryEqual(p, q *protect.Primary) bool {
	if p == nil || q == nil {
		return p == q
	}
	return *p == *q
}

func facilityEqual(p, q *Facility) bool {
	if p == nil || q == nil {
		return p == q
	}
	return *p == *q
}

// RowScratch is one worker's reusable Fill state. Frags and Specs select
// the candidate's fragment per level and spec per device: NewScratch
// points every slot at the base design's, and callers repoint the slots
// a candidate changes before each Fill. The remaining buffers hold the
// demand totals and outlay rows, so Fill never allocates.
type RowScratch struct {
	Frags []*LevelFrag
	Specs []*device.Spec

	totBW    []units.Rate
	totCap   []units.ByteSize
	rowTech  []int32 // nDevices x maxRows outlay-row technique IDs
	rowBase  []units.Money
	rowCount []int
}

// NewScratch allocates one worker's Fill state, pointing at the base.
func (rb *RowBuilder) NewScratch() *RowScratch {
	rs := &RowScratch{
		Frags:    make([]*LevelFrag, rb.nLevels),
		Specs:    make([]*device.Spec, rb.nDevices),
		totBW:    make([]units.Rate, rb.nDevices),
		totCap:   make([]units.ByteSize, rb.nDevices),
		rowTech:  make([]int32, rb.nDevices*rb.maxRows),
		rowBase:  make([]units.Money, rb.nDevices*rb.maxRows),
		rowCount: make([]int, rb.nDevices),
	}
	rb.resetScratch(rs)
	return rs
}

func (rb *RowBuilder) resetScratch(rs *RowScratch) {
	for j := range rs.Frags {
		rs.Frags[j] = &rb.baseFrags[j]
	}
	for i := range rs.Specs {
		rs.Specs[i] = &rb.baseSpecs[i]
	}
}

// Fill folds the fragments and specs rs selects into Cols row `row`:
// duplicate-name check, demand fold, capacity and bandwidth check,
// outlay fold, column write. It returns false, with the row marked
// invalid, when Build would fail on the candidate (duplicate level
// names, an over-capacity device) or a device collects more outlay rows
// than the scratch holds; the caller then takes the legacy path, which
// reproduces the exact error. Allocation-free.
func (rb *RowBuilder) Fill(rs *RowScratch, cols *Cols, row int) bool {
	cols.Valid[row] = false
	// Duplicate level names fail Chain.Validate in Build.
	for a := 0; a < rb.nLevels; a++ {
		for c := a + 1; c < rb.nLevels; c++ {
			if rs.Frags[a].Name == rs.Frags[c].Name {
				return false
			}
		}
	}
	for di := 0; di < rb.nDevices; di++ {
		rs.totBW[di] = 0
		rs.totCap[di] = 0
		rs.rowCount[di] = 0
	}
	if !rb.fold(rs, rb.primary) {
		return false
	}
	for j := 0; j < rb.nLevels; j++ {
		if !rb.fold(rs, rs.Frags[j].Demands) {
			return false
		}
	}

	// Check and outlay fold, in device order.
	devBase := row * rb.nDevices
	var total, covered units.Money
	for di := 0; di < rb.nDevices; di++ {
		sp := rs.Specs[di]
		maxBW := sp.MaxBandwidth()
		if rs.totCap[di] > 0 {
			maxCap := sp.MaxCapacity()
			if maxCap <= 0 || float64(sp.RawCapacityFor(rs.totCap[di])/maxCap) > 1 {
				return false
			}
		}
		if rs.totBW[di] > 0 {
			if maxBW <= 0 || float64(rs.totBW[di]/maxBW) > 1 {
				return false
			}
		}
		cols.DevMaxBW[devBase+di] = maxBW
		avail := maxBW - rs.totBW[di]
		if avail < 0 {
			avail = 0
		}
		cols.DevAvail[devBase+di] = avail

		base := di * rb.maxRows
		spare := sp.HasSpare()
		for x := 0; x < rs.rowCount[di]; x++ {
			b := rs.rowBase[base+x]
			item := b
			if spare {
				item = b + units.Money(sp.Spare.Discount)*b
			}
			total += item
			if rb.covered[di] {
				covered += b
			}
		}
	}
	if rb.retainer && covered > 0 {
		total += units.Money(rb.costFactor) * covered
	}
	cols.OutlaysTotal[row] = total

	lvlBase := row * rb.nLevels
	for j := 0; j < rb.nLevels; j++ {
		f := rs.Frags[j]
		cols.LvlLag[lvlBase+j] = f.Lag
		cols.LvlAccW[lvlBase+j] = f.AccW
		cols.LvlRetSpan[lvlBase+j] = f.RetSpan
		cols.LvlRestore[lvlBase+j] = f.Restore
		cols.LvlCopy[lvlBase+j] = f.Copy
		cols.LvlRead[lvlBase+j] = f.Read
		cols.LvlTransport[lvlBase+j] = f.Transport
	}
	cols.Valid[row] = true
	cols.Err[row] = nil
	return true
}

// fold accumulates one technique's demand records into the bandwidth and
// capacity totals and the per-device outlay rows, replicating
// device.Device.Outlays: the first technique on a device opens the row
// carrying FixedOutlay, every demand adds its Marginal. Returns false if
// a device collects more distinct technique rows than the scratch holds
// (possible only for techniques attributing demands to foreign names).
func (rb *RowBuilder) fold(rs *RowScratch, recs []DemandRec) bool {
	for i := range recs {
		r := &recs[i]
		di := int(r.Dev)
		rs.totBW[di] += r.BW
		rs.totCap[di] += r.Cap

		sp := rs.Specs[di]
		base := di * rb.maxRows
		n := rs.rowCount[di]
		ri := -1
		for x := 0; x < n; x++ {
			if rs.rowTech[base+x] == r.Tech {
				ri = x
				break
			}
		}
		if ri < 0 {
			if n == rb.maxRows {
				return false
			}
			ri = n
			rs.rowCount[di] = n + 1
			rs.rowTech[base+ri] = r.Tech
			var first units.Money
			if ri == 0 {
				first = FixedOutlay(sp)
			}
			rs.rowBase[base+ri] = first
		}
		rs.rowBase[base+ri] += r.Marginal(sp)
	}
	return true
}
