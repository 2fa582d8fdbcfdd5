package netsim

import (
	"reflect"
	"testing"

	"mmlab/internal/core"
	"mmlab/internal/fault"
	"mmlab/internal/geo"
	"mmlab/internal/mobility"
)

func faultRoute() *mobility.Route {
	return mobility.NewRoute(45, geo.Pt(200, 2000), geo.Pt(5800, 2000))
}

// TestZeroFaultLayerChangesNothing: an all-zero injector must reproduce
// the fault-free run exactly.
func TestZeroFaultLayerChangesNothing(t *testing.T) {
	route := faultRoute()
	base := RunDrive(testWorld(t, "A", WorldOpts{Seed: 5}), route, route.Duration(), driveOpts(true))
	zero := driveOpts(true)
	zero.Injector = fault.New(99, fault.Rates{})
	got := RunDrive(testWorld(t, "A", WorldOpts{Seed: 5}), route, route.Duration(), zero)
	if !reflect.DeepEqual(base, got) {
		t.Fatal("zero-fault run diverged from the fault-free simulator")
	}
	if base.Failures != (FailureCounts{}) {
		t.Fatalf("fault-free run reported failures: %+v", base.Failures)
	}
}

// TestFaultDriveDeterministic: identical seeds (world, UE, injector) give
// identical results, including the failure taxonomy.
func TestFaultDriveDeterministic(t *testing.T) {
	route := faultRoute()
	run := func() *DriveResult {
		opts := driveOpts(true)
		opts.Injector = fault.New(7, fault.DefaultRates())
		return RunDrive(testWorld(t, "A", WorldOpts{Seed: 5}), route, route.Duration(), opts)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fault-enabled runs diverged:\n%+v\nvs\n%+v", a.Failures, b.Failures)
	}
	if a.FaultStats == (fault.Stats{}) {
		t.Fatal("default rates injected nothing over a full drive")
	}
}

// TestFadeDrivesRLF: persistent deep fades must push the serving SINR
// through Qout long enough for N310 counting and T310 expiry, then recover
// via re-establishment — the central fault→failure→recovery pipeline.
func TestFadeDrivesRLF(t *testing.T) {
	route := faultRoute()
	opts := driveOpts(true)
	opts.Injector = fault.New(11, fault.Rates{Fade: 0.35})
	res := RunDrive(testWorld(t, "A", WorldOpts{Seed: 5}), route, route.Duration(), opts)
	if res.FaultStats.FadeWindows == 0 {
		t.Fatal("no fade windows at rate 0.35")
	}
	if res.Failures.RLF == 0 {
		t.Fatalf("fades injected (%d windows) but no RLF declared", res.FaultStats.FadeWindows)
	}
	if res.Failures.Reestabs == 0 {
		t.Fatal("RLF declared but never re-established")
	}
	if res.Failures.ReestabOutageMs == 0 {
		t.Fatal("re-establishment without accounted outage")
	}
	if res.OutageMs < res.Failures.ReestabOutageMs {
		t.Fatalf("total outage %d below re-establishment outage %d",
			res.OutageMs, res.Failures.ReestabOutageMs)
	}

	base := RunDrive(testWorld(t, "A", WorldOpts{Seed: 5}), route, route.Duration(), driveOpts(true))
	if res.OutageMs <= base.OutageMs {
		t.Fatalf("faulted outage %d not above fault-free %d", res.OutageMs, base.OutageMs)
	}
}

// TestDropCommandLosesHandoffs: losing every handover command means no
// active handoff ever executes.
func TestDropCommandLosesHandoffs(t *testing.T) {
	route := faultRoute()
	opts := driveOpts(true)
	opts.Injector = fault.New(3, fault.Rates{DropCommand: 1})
	res := RunDrive(testWorld(t, "A", WorldOpts{Seed: 5}), route, route.Duration(), opts)
	if res.Failures.LostCommands == 0 {
		t.Fatal("no commands lost at DropCommand=1")
	}
	if len(res.Handoffs) != 0 {
		t.Fatalf("%d handoffs executed with every command dropped", len(res.Handoffs))
	}
}

// TestRLFWithoutInjector: explicit RLF supervision runs standalone (no
// injector). A well-planned network yields at most the occasional natural
// cell-edge RLF, far fewer than a fade-injected run on the same seeds.
func TestRLFWithoutInjector(t *testing.T) {
	route := faultRoute()
	opts := driveOpts(true)
	cfg := core.DefaultRLFConfig()
	opts.RLF = &cfg
	res := RunDrive(testWorld(t, "A", WorldOpts{Seed: 5}), route, route.Duration(), opts)
	if res.Failures.RLF > 2 {
		t.Fatalf("healthy drive declared %d RLFs, expected at most a rare cell-edge one", res.Failures.RLF)
	}
	if len(res.Handoffs) == 0 {
		t.Fatal("supervision alone should not suppress handoffs")
	}
	faulted := driveOpts(true)
	faulted.Injector = fault.New(11, fault.Rates{Fade: 0.35})
	fres := RunDrive(testWorld(t, "A", WorldOpts{Seed: 5}), route, route.Duration(), faulted)
	if fres.Failures.RLF <= res.Failures.RLF {
		t.Fatalf("fade-injected RLFs (%d) not above natural baseline (%d)",
			fres.Failures.RLF, res.Failures.RLF)
	}
}

// TestMissingTargetCountsFailedHandoff is the regression test for the
// silent-drop bug: a handover command whose target cell is not in the
// world used to return without any accounting, leaving the run looking
// healthier than it was.
func TestMissingTargetCountsFailedHandoff(t *testing.T) {
	route := faultRoute()
	full := RunDrive(testWorld(t, "A", WorldOpts{Seed: 5}), route, route.Duration(), driveOpts(true))
	if len(full.Handoffs) == 0 {
		t.Fatal("baseline drive produced no handoffs")
	}
	// Rebuild the identical world, then unregister the first handoff's
	// target from the index: still audible and measurable, but gone by
	// execution time.
	w := testWorld(t, "A", WorldOpts{Seed: 5})
	victim := full.Handoffs[0].To.CellID
	delete(w.byID, victim)
	res := RunDrive(w, route, route.Duration(), driveOpts(true))
	if res.FailedHO == 0 {
		t.Fatal("vanished handoff target not counted as a failed handoff")
	}
	if min := core.Clock(res.FailedHO) * bandLockoutOutageMs; res.OutageMs < min {
		t.Fatalf("outage %d ms below %d failed handoffs × %d ms lockout charge",
			res.OutageMs, res.FailedHO, bandLockoutOutageMs)
	}
}
