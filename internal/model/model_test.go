package model

import (
	"math"
	"testing"
	"testing/quick"

	"borgmoea/internal/stats"
)

// paperTimes returns the DTLZ2 timing constants from the paper's
// worked example in Section VI.
func paperTimes() Times {
	return Times{TA: 0.000029, TC: 0.000006, TF: 0.01}
}

func TestSerialTime(t *testing.T) {
	// Table II back-derivation: N = 1e5, DTLZ2, TF = 0.01 gives
	// T_S ≈ 1002.9s and hence the observed efficiencies.
	ts := SerialTime(100000, paperTimes())
	if math.Abs(ts-1002.9) > 0.1 {
		t.Fatalf("T_S = %v, want ≈ 1002.9", ts)
	}
}

func TestAsyncTimeMatchesTable2(t *testing.T) {
	// Analytical predictions from Table II (DTLZ2, TF = 0.01):
	// P=16 → 67.1s, P=32 → 32.5s, P=64 → 16.0s, P=128 → 8.0s.
	cases := []struct {
		p    int
		want float64
	}{
		{16, 67.1}, {32, 32.5}, {64, 16.0}, {128, 8.0}, {1024, 1.0},
	}
	for _, c := range cases {
		got := AsyncTime(100000, c.p, paperTimes())
		if math.Abs(got-c.want) > 0.05*c.want {
			t.Errorf("analytical T_P(P=%d) = %v, want ≈ %v (Table II)", c.p, got, c.want)
		}
	}
}

// TestProcessorUpperBoundPaperExample reproduces the paper's worked
// Eq. 3 example: TA=0.000029, TC=0.000006, TF=0.01 → P_UB ≈ 244.
func TestProcessorUpperBoundPaperExample(t *testing.T) {
	pub := ProcessorUpperBound(paperTimes())
	if math.Abs(pub-244) > 1 {
		t.Fatalf("P_UB = %v, want ≈ 244 (paper Section VI)", pub)
	}
}

// TestProcessorLowerBoundAlwaysAtLeastThree verifies the paper's
// observation that the asynchronous model needs ≥ 3 processors
// regardless of TF, TC, TA.
func TestProcessorLowerBoundAlwaysAtLeastThree(t *testing.T) {
	err := quick.Check(func(tfRaw, taRaw, tcRaw uint16) bool {
		tm := Times{
			TF: 1e-6 + float64(tfRaw)/1000,
			TA: 1e-9 + float64(taRaw)/1e6,
			TC: float64(tcRaw) / 1e6,
		}
		plb := ProcessorLowerBound(tm)
		return plb > 2 && !math.IsNaN(plb)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// And the bound approaches 2 as TC → 0.
	if plb := ProcessorLowerBound(Times{TF: 1, TA: 0, TC: 0}); plb != 2 {
		t.Fatalf("P_LB with TC=0 is %v, want exactly 2 (need >, hence 3 processors)", plb)
	}
}

func TestAsyncSpeedupEfficiencyConsistency(t *testing.T) {
	tm := paperTimes()
	for _, p := range []int{2, 16, 128, 1024} {
		s := AsyncSpeedup(p, tm)
		e := AsyncEfficiency(p, tm)
		if math.Abs(e-s/float64(p)) > 1e-12 {
			t.Fatalf("efficiency ≠ speedup/P at P=%d", p)
		}
		// Speedup from time ratio must agree.
		ratio := SerialTime(1000, tm) / AsyncTime(1000, p, tm)
		if math.Abs(s-ratio) > 1e-9 {
			t.Fatalf("speedup %v ≠ T_S/T_P %v", s, ratio)
		}
	}
}

func TestSyncTimeShape(t *testing.T) {
	tm := paperTimes()
	// Synchronous cost per generation grows with P (the P·TC and
	// P·TA terms), so efficiency must fall monotonically in P beyond
	// small counts.
	prev := SyncEfficiency(2, tm)
	for _, p := range []int{4, 16, 64, 256, 1024} {
		e := SyncEfficiency(p, tm)
		if e > prev {
			t.Fatalf("sync efficiency rose from %v to %v at P=%d", prev, e, p)
		}
		prev = e
	}
}

// TestAsyncScalesFurtherThanSync reproduces the paper's Figure 5
// qualitative claim: for a fixed TF there is a processor count where
// async efficiency exceeds sync efficiency, and async sustains
// efficiency to larger P.
func TestAsyncScalesFurtherThanSync(t *testing.T) {
	tm := Times{TF: 0.1, TA: 0.000060, TC: 0.000006}
	asyncAt := func(p int) float64 { return AsyncEfficiency(p, tm) }
	syncAt := func(p int) float64 { return SyncEfficiency(p, tm) }
	// At large P the synchronous barrier's P·TC + P·TA term bites.
	if asyncAt(1024) <= syncAt(1024) {
		t.Fatalf("async efficiency %v not above sync %v at P=1024",
			asyncAt(1024), syncAt(1024))
	}
}

func TestRelativeError(t *testing.T) {
	if e := RelativeError(10, 9); math.Abs(e-0.1) > 1e-12 {
		t.Errorf("RelativeError(10,9) = %v, want 0.1", e)
	}
	if e := RelativeError(10, 11); math.Abs(e-0.1) > 1e-12 {
		t.Errorf("RelativeError(10,11) = %v, want 0.1", e)
	}
	if e := RelativeError(0, 0); e != 0 {
		t.Errorf("RelativeError(0,0) = %v, want 0", e)
	}
	if e := RelativeError(0, 5); e != 1 {
		t.Errorf("RelativeError(0,5) = %v, want 1", e)
	}
	if e := RelativeError(-10, -9); math.Abs(e-0.1) > 1e-12 {
		t.Errorf("RelativeError(-10,-9) = %v, want 0.1", e)
	}
}

func TestModelPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { AsyncTime(10, 1, paperTimes()) },
		func() { SyncTime(10, 0, paperTimes()) },
		func() { ProcessorUpperBound(Times{}) },
		func() { ProcessorLowerBound(Times{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid model call did not panic")
				}
			}()
			fn()
		}()
	}
}

// constDists builds constant distributions from Times.
func constDists(tm Times) (tf, ta, tc stats.Distribution) {
	return stats.NewConstant(tm.TF), stats.NewConstant(tm.TA), stats.NewConstant(tm.TC)
}

// TestSimulationMatchesAnalyticalUnsaturated: with constant
// distributions and P well under P_UB, the simulation model must
// agree with Eq. 2 to within a cycle or two.
func TestSimulationMatchesAnalyticalUnsaturated(t *testing.T) {
	tm := paperTimes() // P_UB ≈ 244
	tf, ta, tc := constDists(tm)
	for _, p := range []int{4, 16, 64} {
		res, err := Simulate(SimConfig{
			Processors: p, Evaluations: 10000,
			TF: tf, TA: ta, TC: tc, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := AsyncTime(10000, p, tm)
		if RelativeError(want, res.Elapsed) > 0.02 {
			t.Errorf("P=%d: simulated %v vs analytical %v", p, res.Elapsed, want)
		}
	}
}

// TestSimulationShowsSaturation: past P_UB the simulation model's
// elapsed time stops following Eq. 2 (which keeps falling as 1/(P−1))
// and the master saturates — the central claim of Section IV.B.
func TestSimulationShowsSaturation(t *testing.T) {
	tm := paperTimes() // P_UB ≈ 244
	tf, ta, tc := constDists(tm)
	const n = 20000
	resLow, err := Simulate(SimConfig{Processors: 128, Evaluations: n, TF: tf, TA: ta, TC: tc, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	resHigh, err := Simulate(SimConfig{Processors: 1024, Evaluations: n, TF: tf, TA: ta, TC: tc, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Analytical predicts an ~8x improvement; saturation caps the
	// real improvement near (and not below) the master service time
	// N·(2TC+TA).
	floor := float64(n) * (2*tm.TC + tm.TA)
	if resHigh.Elapsed < floor*0.99 {
		t.Fatalf("saturated run %v beat the master service floor %v", resHigh.Elapsed, floor)
	}
	analytical := AsyncTime(n, 1024, tm)
	if RelativeError(resHigh.Elapsed, analytical) < 0.3 {
		t.Fatalf("analytical model should be badly wrong at P=1024: sim %v vs analytic %v",
			resHigh.Elapsed, analytical)
	}
	if resHigh.MasterUtilization < 0.95 {
		t.Fatalf("master utilization %v at P=1024, want near saturation", resHigh.MasterUtilization)
	}
	if resHigh.MeanQueueLength <= resLow.MeanQueueLength {
		t.Fatal("queueing did not grow with processor count")
	}
}

// TestSimulationEfficiencyPeaksInterior reproduces the Table II
// observation that efficiency peaks at an interior P well below the
// Eq. 3 bound.
func TestSimulationEfficiencyPeaksInterior(t *testing.T) {
	tm := paperTimes()
	tf, ta, tc := constDists(tm)
	const n = 20000
	eff := map[int]float64{}
	for _, p := range []int{4, 16, 32, 256, 1024} {
		cfg := SimConfig{Processors: p, Evaluations: n, TF: tf, TA: ta, TC: tc, Seed: 3}
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eff[p] = SimEfficiency(cfg, res.Elapsed)
	}
	if !(eff[16] > eff[4]) && !(eff[32] > eff[4]) {
		t.Fatalf("efficiency did not improve from P=4: %v", eff)
	}
	if !(eff[32] > eff[256] && eff[256] > eff[1024]) {
		t.Fatalf("efficiency did not decay past the peak: %v", eff)
	}
}

func TestSimulateValidation(t *testing.T) {
	tf, ta, tc := constDists(paperTimes())
	if _, err := Simulate(SimConfig{Processors: 1, Evaluations: 10, TF: tf, TA: ta, TC: tc}); err == nil {
		t.Error("P=1 accepted")
	}
	if _, err := Simulate(SimConfig{Processors: 4, Evaluations: 0, TF: tf, TA: ta, TC: tc}); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := Simulate(SimConfig{Processors: 4, Evaluations: 10}); err == nil {
		t.Error("missing distributions accepted")
	}
	if _, err := SimulateMean(SimConfig{Processors: 4, Evaluations: 10, TF: tf, TA: ta, TC: tc}, 0); err == nil {
		t.Error("zero replicates accepted")
	}
}

func TestSimulateDeterministicPerSeed(t *testing.T) {
	tm := paperTimes()
	cfg := SimConfig{
		Processors: 32, Evaluations: 5000,
		TF:   stats.GammaFromMeanCV(tm.TF, 0.1),
		TA:   stats.NewConstant(tm.TA),
		TC:   stats.NewConstant(tm.TC),
		Seed: 7,
	}
	a, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed {
		t.Fatal("simulation not deterministic for fixed seed")
	}
}

// TestSimulateStochasticTFIncreasesContention: with the same means, a
// high-variance TF should not *reduce* elapsed time for the
// asynchronous model (the paper argues async is robust — time stays
// ~unchanged — while sync degrades; here we pin the async side).
func TestSimulateStochasticTFRobustness(t *testing.T) {
	tm := paperTimes()
	base := SimConfig{
		Processors: 32, Evaluations: 20000,
		TA: stats.NewConstant(tm.TA), TC: stats.NewConstant(tm.TC), Seed: 8,
	}
	cfgConst := base
	cfgConst.TF = stats.NewConstant(tm.TF)
	cfgVar := base
	cfgVar.TF = stats.GammaFromMeanCV(tm.TF, 1.0) // wildly variable
	a, err := Simulate(cfgConst)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfgVar)
	if err != nil {
		t.Fatal(err)
	}
	if RelativeError(a.Elapsed, b.Elapsed) > 0.10 {
		t.Fatalf("async elapsed should be robust to TF variance: const %v vs CV=1 %v",
			a.Elapsed, b.Elapsed)
	}
}

func BenchmarkSimulate32(b *testing.B) {
	tm := paperTimes()
	tf, ta, tc := constDists(tm)
	for i := 0; i < b.N; i++ {
		_, err := Simulate(SimConfig{
			Processors: 32, Evaluations: 10000,
			TF: tf, TA: ta, TC: tc, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestSimulateCountsOnlyBudget: at P = 1024 and T_F = 1 ms the master
// is saturated and hundreds of evaluations are in flight when the N-th
// completes. Only the first N count, and master time after T_P is not
// charged, so utilisation never exceeds 1.
func TestSimulateCountsOnlyBudget(t *testing.T) {
	const n = 100000
	res, err := Simulate(SimConfig{
		Processors: 1024, Evaluations: n,
		TF:   stats.GammaFromMeanCV(0.001, 0.1),
		TA:   stats.GammaFromMeanCV(0.00005, 0.1),
		TC:   stats.NewConstant(6e-6),
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != n {
		t.Errorf("Evaluations = %d, want %d", res.Evaluations, n)
	}
	if res.MasterUtilization > 1 || res.MasterUtilization < 0.99 {
		t.Errorf("MasterUtilization = %v, want saturated but at most 1", res.MasterUtilization)
	}
}

// TestSimulateElapsedPinned pins T_P bit for bit over the Table II
// grid (at a smaller N). The constants predate the fix that stopped
// counting evaluations past N, which must not move T_P.
func TestSimulateElapsedPinned(t *testing.T) {
	for _, c := range []struct {
		tf   float64
		p    int
		want uint64
	}{
		{0.001, 16, 0x3ff7c528a8d46dc3},
		{0.001, 32, 0x3ff3e14106823d49},
		{0.001, 64, 0x3ff3e03c11435f94},
		{0.001, 128, 0x3ff3e6b5da87142d},
		{0.001, 256, 0x3ff3de58c046410a},
		{0.001, 512, 0x3ff3e20d2e3310b5},
		{0.001, 1024, 0x3ff3e11837892f48},
		{0.01, 16, 0x402added55a6a5d8},
		{0.01, 32, 0x401a0ae321a02cb5},
		{0.01, 64, 0x4009c5b646a26c41},
		{0.01, 128, 0x3ff9ea59944caa38},
		{0.01, 256, 0x3ff42a6313611d84},
		{0.01, 512, 0x3ff4311897125d59},
		{0.01, 1024, 0x3ff435ae7b285b20},
		{0.1, 16, 0x4060b191460bdfec},
		{0.1, 32, 0x40502c2ba1a017c6},
		{0.1, 64, 0x403ff64fb760d84f},
		{0.1, 128, 0x402fd4860bddcc79},
		{0.1, 256, 0x40200910b847f689},
		{0.1, 512, 0x401063b3588c11b4},
		{0.1, 1024, 0x4001486d478108fe},
	} {
		res, err := Simulate(SimConfig{
			Processors: c.p, Evaluations: 20000,
			TF:   stats.GammaFromMeanCV(c.tf, 0.1),
			TA:   stats.GammaFromMeanCV(0.00005, 0.1),
			TC:   stats.NewConstant(6e-6),
			Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(res.Elapsed); got != c.want {
			t.Errorf("T_F=%g P=%d: Elapsed %v (%#x), want %v", c.tf, c.p, res.Elapsed, got, math.Float64frombits(c.want))
		}
		if res.Evaluations != 20000 || res.MasterUtilization > 1 {
			t.Errorf("T_F=%g P=%d: %d evaluations, utilisation %v", c.tf, c.p, res.Evaluations, res.MasterUtilization)
		}
	}
}
