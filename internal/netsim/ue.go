package netsim

import (
	"math"

	"mmlab/internal/config"
	"mmlab/internal/core"
	"mmlab/internal/fault"
	"mmlab/internal/mobility"
	"mmlab/internal/radio"
	"mmlab/internal/sib"
	"mmlab/internal/traffic"
	"mmlab/internal/units"
)

// HandoffKind distinguishes the paper's two handoff categories.
type HandoffKind string

// Handoff kinds.
const (
	ActiveHandoff HandoffKind = "active"
	IdleHandoff   HandoffKind = "idle"
)

// HandoffRecord is one handoff instance — the unit of dataset D1.
type HandoffRecord struct {
	Time       core.Clock // execution time
	ReportTime core.Clock // decisive measurement report (active only)
	Kind       HandoffKind

	// Event is the decisive reporting event (active-state; the paper finds
	// "the last event is decisive").
	Event       config.EventType
	EventConfig config.EventConfig // the decisive event's configuration

	From, To                 config.CellIdentity
	FromPriority, ToPriority int

	RSRPOld, RSRPNew units.Dbm
	RSRQOld, RSRQNew units.Db

	// MinThptBefore is the minimum 100 ms throughput in the 5 s before the
	// decisive report (bps); the paper's handoff-quality metric (§4.1).
	// -1 when no traffic ran.
	MinThptBefore float64

	// PingPong marks an active handoff back to the previous serving cell
	// within the ping-pong window (TS 36.300 §22.4.2 MRO). Only tracked
	// when the fault/RLF layer is enabled, so zero-fault datasets are
	// unchanged.
	PingPong bool
}

// ThptSample is one 100 ms throughput bin.
type ThptSample struct {
	Time core.Clock
	Bps  float64
}

// UEOpts configures one simulated device run.
type UEOpts struct {
	Seed   int64
	StepMs int64 // measurement period; default 40 ms
	Active bool  // active-state (traffic + network handoffs) vs idle
	App    traffic.App
	Diag   *sib.DiagWriter // optional: capture signaling like a rooted phone
	// DeviceBands limits which EARFCNs the device supports (nil = all);
	// models the paper's band-30 lockout case (§5.4.1).
	DeviceBands []uint32
	// Injector supplies signaling-plane faults (dropped/delayed reports,
	// lost handover commands, deep fades). nil injects nothing and keeps
	// the run byte-identical to the fault-free simulator. Each run must
	// own its injector — it accumulates per-run statistics.
	Injector *fault.Injector
	// RLF enables TS 36.331 radio-link-failure supervision with the given
	// timers. When nil, supervision still runs with defaults if an
	// Injector is set (faults without RLF would be unobservable); with
	// neither, the RLF machinery is off entirely.
	RLF *core.RLFConfig
}

func (o *UEOpts) fill() {
	if o.StepMs == 0 {
		o.StepMs = 40
	}
}

const (
	// fadingSigmaDB is the residual per-sample fading in dB.
	fadingSigmaDB = 1.5
	// maxNeighbors caps the neighbors measured per round.
	maxNeighbors = 10
	// bandLockoutOutageMs is the service disruption charged when the
	// network orders an active-state handoff the device cannot perform
	// (unsupported band, vanished target): the UE must detach, fail, and
	// recover via connection re-establishment on the old cell. The paper's
	// band-30 lockout case (§5.4.1) motivates the 1000 ms.
	bandLockoutOutageMs core.Clock = 1000
)

// FailureCounts is the mobility-robustness failure taxonomy of TS 36.300
// §22.4.2, produced by runs with the fault/RLF layer enabled. The zero
// value means no failures (and is all a fault-free run ever reports).
type FailureCounts struct {
	// RLF counts radio-link failures declared by T310 expiry.
	RLF int
	// TooLateHO: RLF with no recent handoff, re-established on a cell
	// other than the serving one — the handoff that should have happened
	// didn't happen in time.
	TooLateHO int
	// TooEarlyHO: RLF shortly after a handoff, re-established on the
	// source cell — the handoff fired before the target was viable.
	TooEarlyHO int
	// WrongCellHO: RLF shortly after a handoff, re-established on a third
	// cell — neither source nor target was the right choice.
	WrongCellHO int
	// LostCommands counts handover commands lost on the downlink: the
	// network decided, the UE never heard (handover failure).
	LostCommands int
	// PingPongs counts handoffs back to the previous serving cell within
	// the ping-pong window.
	PingPongs int
	// Reestabs counts completed RRC connection re-establishments.
	Reestabs int
	// ReestabFailed counts T311 expiries — no suitable cell found in time,
	// forcing the slower idle re-attach path.
	ReestabFailed int
	// ReestabOutageMs is the user-plane outage accumulated between RLF
	// declarations and re-establishment completions.
	ReestabOutageMs core.Clock
}

// Add accumulates o into c (campaign aggregation).
func (c *FailureCounts) Add(o FailureCounts) {
	c.RLF += o.RLF
	c.TooLateHO += o.TooLateHO
	c.TooEarlyHO += o.TooEarlyHO
	c.WrongCellHO += o.WrongCellHO
	c.LostCommands += o.LostCommands
	c.PingPongs += o.PingPongs
	c.Reestabs += o.Reestabs
	c.ReestabFailed += o.ReestabFailed
	c.ReestabOutageMs += o.ReestabOutageMs
}

// Taxonomy windows (TS 36.300 §22.4.2): a re-establishment within
// classifyWindowMs of the last handoff is attributed to that handoff
// (too-early / wrong-cell); a handoff returning to the previous cell
// within pingPongWindowMs is a ping-pong (T_pp).
const (
	classifyWindowMs core.Clock = 5000
	pingPongWindowMs core.Clock = 5000
	// reattachMs is the extra camp delay after T311 expiry: the UE fell
	// back to idle and must re-attach rather than re-establish.
	reattachMs core.Clock = 2000
)

// DriveResult is everything one run produces.
type DriveResult struct {
	Handoffs    []HandoffRecord
	Thpt        []ThptSample // 100 ms bins (active runs with traffic)
	Reports     map[config.EventType]int
	FailedHO    int        // handoffs to unsupported bands (service disruption)
	OutageMs    core.Clock // accumulated user-plane outage
	ServingEnds config.CellIdentity

	// Failures is the robustness taxonomy; zero unless the fault/RLF
	// layer ran.
	Failures FailureCounts
	// FaultStats is what the injector actually injected (zero without one).
	FaultStats fault.Stats
}

// MeanThpt returns the mean of the 100 ms bins, or 0.
func (r *DriveResult) MeanThpt() float64 {
	if len(r.Thpt) == 0 {
		return 0
	}
	s := 0.0
	for _, b := range r.Thpt {
		s += b.Bps
	}
	return s / float64(len(r.Thpt))
}

// ue is the running state of one simulated device.
type ue struct {
	w    *World
	opts UEOpts

	serving *Cell
	monitor *core.ActiveMonitor
	decider *core.Decider
	resel   *core.IdleReselector

	fading  map[uint32]*radio.FastFading
	tracker core.MobilityTracker

	pending     *core.Decision
	decisiveRep core.Report

	interruptUntil core.Clock

	binStart core.Clock
	binBits  float64

	// Fault/RLF layer (nil-safe: inj may be nil; rlf nil means no
	// supervision and no taxonomy).
	inj     *fault.Injector
	rlf     *core.RLFMonitor
	delayed []delayedReport
	reestab reestabState

	hadHO      bool
	lastHOTime core.Clock
	lastHOFrom config.CellIdentity

	// Hot-path scratch, reused every measurement round so steady-state
	// rounds allocate nothing.
	probe *Probe
	chPow []float64 // co-channel power per World channel index
	pow   []float64 // each audible cell's co-channel power, in probe order
	neigh []core.RawMeas

	res *DriveResult
}

// delayedReport is a measurement report in flight on a slow backhaul.
type delayedReport struct {
	rep   core.Report
	due   core.Clock // arrival at the decision logic
	delay core.Clock
}

// reestabState tracks one RRC connection re-establishment (TS 36.331
// §5.3.7): after RLF the UE selects a cell under T311 supervision, then
// runs the re-establishment procedure (T301) before service resumes.
type reestabState struct {
	active       bool
	declaredAt   core.Clock // when RLF was declared
	t311Deadline core.Clock
	t311Expired  bool
	targetID     config.CellIdentity
	completeAt   core.Clock // 0 until a cell is selected
}

// RunDrive simulates one device moving through the world for durMs.
//
// The driver is a fixed-step loop: one measurement round per StepMs tick.
func RunDrive(w *World, move mobility.Model, durMs int64, opts UEOpts) *DriveResult {
	opts.fill()
	u := &ue{
		w:      w,
		opts:   opts,
		inj:    opts.Injector,
		fading: make(map[uint32]*radio.FastFading),
		probe:  w.NewProbe(),
		chPow:  make([]float64, w.channels),
		res:    &DriveResult{Reports: make(map[config.EventType]int)},
	}
	if opts.Active && (opts.Injector != nil || opts.RLF != nil) {
		cfg := core.DefaultRLFConfig()
		if opts.RLF != nil {
			cfg = *opts.RLF
		}
		u.rlf = core.NewRLFMonitor(cfg)
	}
	start := w.StrongestLTE(move.At(0))
	if start == nil {
		return u.res
	}
	u.camp(0, start)

	for t := core.Clock(0); t <= durMs; t += opts.StepMs {
		u.round(t, move)
	}
	u.flushBin(durMs)
	if u.reestab.active {
		// The run ended mid-re-establishment: charge the outage so far.
		out := core.Clock(durMs) - u.reestab.declaredAt
		u.res.OutageMs += out
		u.res.Failures.ReestabOutageMs += out
	}
	u.res.FaultStats = u.inj.Stats()
	u.res.ServingEnds = u.serving.Site.Identity
	return u.res
}

// camp attaches to a cell: fresh engine state plus broadcast capture, as
// after any handoff ("Once this round completes, the device is served by T
// and is ready to repeat the above procedure", §2.1).
func (u *ue) camp(t core.Clock, c *Cell) {
	u.serving = c
	if u.opts.Active {
		u.monitor = core.NewActiveMonitor(c.Config.Meas, c.Site.Identity)
		u.decider = core.NewDecider(c.Config)
		u.resel = nil
	} else {
		u.resel = core.NewIdleReselector(c.Config)
		u.resel.Tracker = &u.tracker
		u.monitor = nil
		u.decider = nil
	}
	u.pending = nil
	u.delayed = u.delayed[:0]
	if u.rlf != nil {
		// The new connection starts with fresh out-of-sync counters.
		u.rlf.Reset()
	}
	if u.opts.Diag != nil {
		for _, raw := range sib.BroadcastSet(c.Config) {
			u.opts.Diag.Write(sib.DiagRecord{TimestampMs: uint64(t), Dir: sib.Downlink, Raw: raw})
		}
	}
}

// fadingFor returns the per-(UE, cell) fading process.
func (u *ue) fadingFor(id uint32) *radio.FastFading {
	f, ok := u.fading[id]
	if !ok {
		f = radio.NewFastFading(u.opts.Seed^int64(uint64(id)*0x5DEECE66D), fadingSigmaDB, 0.7)
		u.fading[id] = f
	}
	return f
}

// ueNoiseMw is the thermal noise per resource element at a 7 dB UE noise
// figure.
var ueNoiseMw = radio.NoisePerREMw(7)

// measure produces one cell's raw measurement. det is the cell's
// deterministic RSRP at the UE position (the caller already has it from
// the audibility query); intfNoiseMw is the co-channel
// interference-plus-noise power per RE excluding this cell; fadeDB is the
// blanket deep-fade attenuation (0 outside fault episodes).
func (u *ue) measure(c *Cell, det units.Dbm, intfNoiseMw, fadeDB float64) core.RawMeas {
	rsrp := radio.ClampRSRP(det.Add(u.fadingFor(c.Site.Identity.CellID).Next()).SubDb(units.Db(fadeDB)))
	return core.RawMeas{
		Cell: c.Site.Identity,
		RSRP: rsrp,
		RSRQ: radio.RSRQ(rsrp, intfNoiseMw),
	}
}

// fadedIntf attenuates the interference part of an interference-plus-noise
// power by fadeDB while keeping the thermal noise floor: a blockage dims
// every tower equally but the receiver's own noise stays, which is exactly
// what drives SINR down during a deep fade.
func fadedIntf(intfNoiseMw, fadeDB float64) float64 {
	if fadeDB == 0 {
		return intfNoiseMw
	}
	return (intfNoiseMw-ueNoiseMw)/math.Pow(10, fadeDB/10) + ueNoiseMw
}

// waiting reports whether the UE is in the quiet half of a
// re-establishment: a target cell is selected and the UE is simply waiting
// out the procedure delay (T301, or the idle re-attach). It holds no RRC
// connection and takes no measurements during that span.
func (u *ue) waiting() bool {
	return u.reestab.active && u.reestab.completeAt > 0
}

// round runs one measurement round at time t — the body of a simulation
// tick. During a waiting() span only the traffic clock advances: the radio
// is detached, so no cells are measured, no fading processes are drawn,
// and no monitor state moves until the completion deadline.
func (u *ue) round(t core.Clock, move mobility.Model) {
	if u.waiting() {
		u.appOutageStep(t)
		if t >= u.reestab.completeAt {
			u.finishReestab(t)
		}
		return
	}
	pos := move.At(t)
	audible := u.probe.AudibleScored(pos)

	// Per-channel co-channel power (load-weighted, deterministic RSRP):
	// the interference substrate behind RSRQ and SINR. The probe already
	// scored every audible cell, so no RSRP is evaluated twice, and each
	// cell's own power is kept so no power is either.
	clear(u.chPow)
	u.pow = u.pow[:0]
	servingRSRP := units.Dbm(math.NaN())
	var servingPow float64
	for _, a := range audible {
		p := a.Cell.Load * radio.DBmToMw(a.RSRP.V())
		u.pow = append(u.pow, p)
		u.chPow[a.Cell.ch] += p
		if a.Cell == u.serving {
			servingRSRP, servingPow = a.RSRP, p
		}
	}
	if math.IsNaN(servingRSRP.V()) {
		// Serving cell out of measurement range: it still transmits.
		servingRSRP = u.w.RSRPAt(u.serving, pos)
		servingPow = u.serving.Load * radio.DBmToMw(servingRSRP.V())
		u.chPow[u.serving.ch] += servingPow
	}
	// intfFor is the co-channel interference-plus-noise power seen by cell
	// c, whose own co-channel power is pow.
	intfFor := func(c *Cell, pow float64) float64 {
		intf := u.chPow[c.ch] - pow
		if intf < 0 {
			intf = 0
		}
		return intf + ueNoiseMw
	}

	// Deep-fade episodes attenuate every tower the UE hears (fadeDB is 0
	// without an injector, leaving all the math untouched).
	fadeDB := u.inj.FadeDB(int64(t))

	servingIntf := fadedIntf(intfFor(u.serving, servingPow), fadeDB)
	servingMeas := u.measure(u.serving, servingRSRP, servingIntf, fadeDB)

	u.neigh = u.neigh[:0]
	for i, a := range audible {
		if a.Cell == u.serving {
			continue
		}
		if len(u.neigh) >= maxNeighbors {
			break
		}
		m := u.measure(a.Cell, a.RSRP, fadedIntf(intfFor(a.Cell, u.pow[i]), fadeDB), fadeDB)
		if m.RSRP <= radio.RSRPMin+1 {
			continue // below the noise floor: undetectable
		}
		u.neigh = append(u.neigh, m)
	}

	if u.opts.Active {
		u.stepActive(t, servingMeas, servingIntf, u.neigh)
	} else {
		u.stepIdle(t, servingMeas, u.neigh)
	}
}

// appOutageStep advances the traffic app one step with zero link capacity
// (radio detached during re-establishment).
func (u *ue) appOutageStep(t core.Clock) {
	if u.opts.App == nil {
		return
	}
	bits := u.opts.App.Step(t, u.opts.StepMs, 0)
	u.accumulate(t, bits)
}

// stepActive runs one active-state round: traffic, RLF supervision,
// measurement/reporting, network decision, and handoff execution.
func (u *ue) stepActive(t core.Clock, servingMeas core.RawMeas, servingIntfMw float64, neighbors []core.RawMeas) {
	// --- data plane ---
	if u.opts.App != nil {
		linkBps := 0.0
		if t >= u.interruptUntil && !u.reestab.active {
			sinr := radio.SINRdB(servingMeas.RSRP, servingIntfMw)
			linkBps = radio.Throughput(sinr)
		}
		bits := u.opts.App.Step(t, u.opts.StepMs, linkBps)
		u.accumulate(t, bits)
	}

	// No RRC connection while re-establishing: no reports, no decisions.
	// Only the cell-search phase reaches here; once a target is selected,
	// round() short-circuits the whole measurement round until completion.
	if u.reestab.active {
		u.reestabSearch(t, servingMeas, neighbors)
		return
	}

	// --- radio-link supervision (TS 36.331 §5.3.11) ---
	if u.rlf != nil {
		sinr := radio.SINRdB(servingMeas.RSRP, servingIntfMw)
		if u.rlf.Observe(t, sinr) == core.RLFDeclared {
			u.declareRLF(t)
			return
		}
	}

	// --- control plane ---
	// Reports stuck on a slow backhaul reach the decision logic late; a
	// decision made on a stale report executes late too. Reports maturing
	// while a preparation is already underway are discarded by the eNB.
	if len(u.delayed) > 0 {
		keep := u.delayed[:0]
		for _, dr := range u.delayed {
			switch {
			case dr.due > t:
				keep = append(keep, dr)
			case u.pending == nil:
				if dec := u.decider.OnReport(dr.rep); dec.Handoff {
					d := dec
					d.ExecuteAt += dr.delay
					u.pending = &d
					u.decisiveRep = dr.rep
				}
			}
		}
		u.delayed = keep
	}

	// While a handoff is being prepared the source eNB has already decided
	// and the UE's measurement configuration is about to be replaced, so
	// no further reports go out. This is also what makes the paper's
	// observation hold on the wire: the decisive report is the *last*
	// report before the handover command (§4.1).
	if u.pending == nil {
		for _, rep := range u.monitor.Observe(t, servingMeas, neighbors) {
			u.res.Reports[rep.Event]++
			if u.opts.Diag != nil {
				// The UE-side capture sees every report it sends, even the
				// ones the network never receives.
				u.opts.Diag.WriteMsg(uint64(t), sib.Uplink, reportToWire(rep))
			}
			if u.inj.DropReport(int64(t)) {
				continue // lost on the uplink
			}
			if d := u.inj.DelayReport(int64(t)); d > 0 {
				u.delayed = append(u.delayed, delayedReport{rep: rep, due: t + core.Clock(d), delay: core.Clock(d)})
				continue
			}
			if dec := u.decider.OnReport(rep); dec.Handoff {
				d := dec
				u.pending = &d
				u.decisiveRep = rep
				break // preparation starts; later reports never leave the UE
			}
		}
	}

	if u.pending != nil && t >= u.pending.ExecuteAt {
		if u.inj.DropCommand(int64(u.pending.ExecuteAt)) {
			// Handover Command lost on the downlink: the network has
			// switched its decision state but the UE never moves — the
			// classic handover-failure precursor. The stale preparation is
			// abandoned; reporting resumes next round.
			u.pending = nil
			u.res.Failures.LostCommands++
			return
		}
		u.executeActive(t, servingMeas, neighbors)
	}
}

// declareRLF moves the UE into connection re-establishment after T310
// expiry: the pending handoff (if any) dies with the connection, reports
// in flight are lost, and cell selection runs under T311.
func (u *ue) declareRLF(t core.Clock) {
	u.res.Failures.RLF++
	u.pending = nil
	u.delayed = u.delayed[:0]
	u.reestab = reestabState{
		active:       true,
		declaredAt:   t,
		t311Deadline: t + u.rlf.Config().T311Ms,
	}
}

// reestabSearch runs one cell-selection round of post-RLF recovery under
// T311; once a cell is selected the re-establishment procedure (T301)
// runs as a quiet span and finishReestab resumes service.
func (u *ue) reestabSearch(t core.Clock, servingMeas core.RawMeas, neighbors []core.RawMeas) {
	if !u.reestab.t311Expired && t >= u.reestab.t311Deadline {
		// T311 expired with no suitable cell: the UE falls to idle and
		// must re-attach, a strictly slower recovery.
		u.reestab.t311Expired = true
		u.res.Failures.ReestabFailed++
	}
	cand, ok := u.bestReestabCell(servingMeas, neighbors)
	if !ok {
		return
	}
	delay := u.rlf.Config().T301Ms
	if u.reestab.t311Expired {
		delay = reattachMs
	}
	u.reestab.targetID = cand
	u.reestab.completeAt = t + delay
}

// bestReestabCell picks the strongest detectable, device-supported LTE
// cell — the serving cell included (re-establishing where you were is the
// common case once a fade lifts).
func (u *ue) bestReestabCell(servingMeas core.RawMeas, neighbors []core.RawMeas) (config.CellIdentity, bool) {
	var best config.CellIdentity
	bestRSRP := units.Dbm(radio.RSRPMin + 1) // detectability floor
	consider := func(m core.RawMeas) {
		if m.Cell.RAT != config.RATLTE || m.RSRP <= bestRSRP {
			return
		}
		if !core.SupportedTarget(u.opts.DeviceBands, m.Cell) {
			return
		}
		best, bestRSRP = m.Cell, m.RSRP
	}
	consider(servingMeas)
	for _, n := range neighbors {
		consider(n)
	}
	return best, best != (config.CellIdentity{})
}

// finishReestab completes the re-establishment: account the outage,
// classify the failure per TS 36.300 §22.4.2, and camp on the new cell.
func (u *ue) finishReestab(t core.Clock) {
	target, ok := u.w.CellByID(u.reestab.targetID.CellID)
	if !ok {
		u.reestab.completeAt = 0 // cell vanished: reselect
		return
	}
	out := t - u.reestab.declaredAt
	u.res.OutageMs += out
	u.res.Failures.ReestabOutageMs += out
	u.res.Failures.Reestabs++
	if newID := target.Site.Identity; newID != u.serving.Site.Identity {
		if u.hadHO && t-u.lastHOTime <= classifyWindowMs {
			if newID == u.lastHOFrom {
				u.res.Failures.TooEarlyHO++
			} else {
				u.res.Failures.WrongCellHO++
			}
		} else {
			u.res.Failures.TooLateHO++
		}
	}
	u.reestab = reestabState{}
	u.camp(t, target)
}

// executeActive performs the pending network-ordered handoff.
func (u *ue) executeActive(t core.Clock, servingMeas core.RawMeas, neighbors []core.RawMeas) {
	dec := *u.pending
	u.pending = nil
	target, ok := u.w.CellByID(dec.Target.CellID)
	if !ok {
		// The commanded target no longer exists (decommissioned between
		// decision and execution): the handoff fails and the UE recovers on
		// the old cell — a disruption, not a silent no-op.
		u.res.FailedHO++
		u.res.OutageMs += bandLockoutOutageMs
		u.interruptUntil = t + bandLockoutOutageMs
		return
	}
	if !core.SupportedTarget(u.opts.DeviceBands, dec.Target) {
		// The paper's band-lockout failure: the network orders a handoff
		// the phone cannot perform; service is disrupted (§5.4.1).
		u.res.FailedHO++
		u.res.OutageMs += bandLockoutOutageMs
		u.interruptUntil = t + bandLockoutOutageMs
		return
	}
	// The target's radio quality as last measured this round.
	var newMeas core.RawMeas
	newMeas.Cell = target.Site.Identity
	newMeas.RSRP = radio.RSRPMin
	newMeas.RSRQ = radio.RSRQMin
	for _, n := range neighbors {
		if n.Cell == target.Site.Identity {
			newMeas = n
			break
		}
	}
	rec := HandoffRecord{
		Time:          t,
		ReportTime:    u.decisiveRep.Time,
		Kind:          ActiveHandoff,
		Event:         u.decisiveRep.Event,
		EventConfig:   findEventConfig(u.serving.Config.Meas, u.decisiveRep.Event),
		From:          u.serving.Site.Identity,
		To:            target.Site.Identity,
		FromPriority:  u.serving.Config.Serving.Priority,
		ToPriority:    targetPriority(u.serving.Config, target),
		RSRPOld:       servingMeas.RSRP,
		RSRPNew:       newMeas.RSRP,
		RSRQOld:       servingMeas.RSRQ,
		RSRQNew:       newMeas.RSRQ,
		MinThptBefore: u.minThptBefore(u.decisiveRep.Time),
	}
	if u.rlf != nil {
		if u.hadHO && rec.To == u.lastHOFrom && t-u.lastHOTime <= pingPongWindowMs {
			rec.PingPong = true
			u.res.Failures.PingPongs++
		}
		u.hadHO = true
		u.lastHOTime = t
		u.lastHOFrom = u.serving.Site.Identity
	}
	u.res.Handoffs = append(u.res.Handoffs, rec)
	if u.opts.Diag != nil {
		u.opts.Diag.WriteMsg(uint64(t), sib.Downlink, &sib.HandoverCommand{
			TargetCellID: target.Site.Identity.CellID,
			TargetPCI:    target.Site.Identity.PCI,
			TargetEARFCN: target.Site.Identity.EARFCN,
			TargetRAT:    target.Site.Identity.RAT,
		})
	}
	u.interruptUntil = t + core.InterruptionMs
	u.res.OutageMs += core.InterruptionMs
	u.camp(t, target)
}

// stepIdle runs one idle-state reselection round.
func (u *ue) stepIdle(t core.Clock, servingMeas core.RawMeas, neighbors []core.RawMeas) {
	targetID, ok := u.resel.Evaluate(t, servingMeas, neighbors)
	if !ok {
		return
	}
	if !core.SupportedTarget(u.opts.DeviceBands, targetID) {
		// Device cannot camp on the winning layer: it stays, and because
		// the ranking keeps selecting the unsupported layer, service on
		// better cells is lost (the paper's complaint case).
		u.res.FailedHO++
		u.resel.Reset()
		return
	}
	target, found := u.w.CellByID(targetID.CellID)
	if !found {
		return
	}
	var newMeas core.RawMeas
	for _, n := range neighbors {
		if n.Cell == targetID {
			newMeas = n
			break
		}
	}
	rec := HandoffRecord{
		Time:          t,
		Kind:          IdleHandoff,
		From:          u.serving.Site.Identity,
		To:            targetID,
		FromPriority:  u.serving.Config.Serving.Priority,
		ToPriority:    targetPriority(u.serving.Config, target),
		RSRPOld:       servingMeas.RSRP,
		RSRPNew:       newMeas.RSRP,
		RSRQOld:       servingMeas.RSRQ,
		RSRQNew:       newMeas.RSRQ,
		MinThptBefore: -1,
	}
	u.res.Handoffs = append(u.res.Handoffs, rec)
	u.tracker.NoteCellChange(t)
	u.camp(t, target)
}

// accumulate adds transferred bits into 100 ms bins.
func (u *ue) accumulate(t core.Clock, bits float64) {
	const bin = 100
	for t-u.binStart >= bin {
		u.res.Thpt = append(u.res.Thpt, ThptSample{Time: u.binStart, Bps: u.binBits * 1000 / bin})
		u.binStart += bin
		u.binBits = 0
	}
	u.binBits += bits
}

// flushBin closes the final partial bin.
func (u *ue) flushBin(t core.Clock) {
	if t > u.binStart && u.binBits > 0 {
		dur := float64(t - u.binStart)
		u.res.Thpt = append(u.res.Thpt, ThptSample{Time: u.binStart, Bps: u.binBits * 1000 / dur})
	}
}

// minThptBefore scans the 5 s of 100 ms bins preceding a report.
func (u *ue) minThptBefore(reportTime core.Clock) float64 {
	if u.opts.App == nil {
		return -1
	}
	min := -1.0
	for i := len(u.res.Thpt) - 1; i >= 0; i-- {
		b := u.res.Thpt[i]
		if b.Time > reportTime {
			continue
		}
		if b.Time < reportTime-5000 {
			break
		}
		if min < 0 || b.Bps < min {
			min = b.Bps
		}
	}
	return min
}

// targetPriority resolves the target's reselection priority as the serving
// cell's broadcast defines it (intra-frequency targets are equal-priority
// by construction).
func targetPriority(serving *config.CellConfig, target *Cell) int {
	tid := target.Site.Identity
	if tid.EARFCN == serving.Identity.EARFCN && tid.RAT == serving.Identity.RAT {
		return serving.Serving.Priority
	}
	if fr, ok := serving.FreqFor(tid.EARFCN, tid.RAT); ok {
		return fr.Priority
	}
	// Not in the serving cell's SIBs: fall back to the target's own claim.
	return target.Config.Serving.Priority
}

// findEventConfig locates the report configuration matching an event type.
func findEventConfig(mc config.MeasConfig, t config.EventType) config.EventConfig {
	for _, pair := range mc.LinkedPairs() {
		if pair.Report.Type == t {
			return pair.Report
		}
	}
	return config.EventConfig{Type: t}
}

// reportToWire converts an engine report to its wire message.
func reportToWire(rep core.Report) *sib.MeasurementReport {
	toRes := func(e core.MeasEntry) sib.MeasResult {
		return sib.MeasResult{
			PCI:     e.Cell.PCI,
			EARFCN:  e.Cell.EARFCN,
			RAT:     e.Cell.RAT,
			RSRPIdx: radio.QuantizeRSRP(e.RSRP),
			RSRQIdx: radio.QuantizeRSRQ(e.RSRQ),
		}
	}
	m := &sib.MeasurementReport{
		MeasID:    rep.MeasID,
		EventType: rep.Event,
		Serving:   toRes(rep.Serving),
	}
	for _, n := range rep.Neighbors {
		m.Neighbors = append(m.Neighbors, toRes(n))
	}
	return m
}
