package parallel

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"borgmoea/internal/advisor"
	"borgmoea/internal/core"
	"borgmoea/internal/obs"
	"borgmoea/internal/problems"
	"borgmoea/internal/stats"
)

// taSchedule is the part of a run that depends on which master calls
// are charged as T_A and on how the T_A and T_C draws interleave on
// the master's RNG stream. Floats are kept as bit patterns so the
// comparison is exact.
type taSchedule struct {
	Elapsed, MasterBusy, MeanTA uint64
	TASamples                   int
	Samples, Archive            uint64
}

func fnvDigest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func samplesDigest(xs []float64) uint64 {
	b := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(x))
	}
	return fnvDigest(b)
}

func archiveDigest(t *testing.T, arch *core.Archive) uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := core.SaveArchive(&buf, arch); err != nil {
		t.Fatal(err)
	}
	return fnvDigest(buf.Bytes())
}

func frontDigest(front [][]float64) uint64 {
	var b []byte
	for _, f := range front {
		for _, x := range f {
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	return fnvDigest(b)
}

// gammaConfig is a DTLZ2-5 run with Gamma-distributed T_A and T_C, so
// every T_A section and every T_C charge consumes master RNG draws.
func gammaConfig(p int, n uint64) Config {
	return Config{
		Problem:        problems.NewDTLZ2(5),
		Algorithm:      core.Config{Epsilons: core.UniformEpsilons(5, 0.1)},
		Processors:     p,
		Evaluations:    n,
		TF:             stats.GammaFromMeanCV(0.001, 0.1),
		TA:             stats.GammaFromMeanCV(0.000023, 0.3),
		TC:             stats.GammaFromMeanCV(0.000006, 0.3),
		Seed:           7,
		CaptureTimings: true,
	}
}

func scheduleOf(t *testing.T, res *Result) taSchedule {
	return taSchedule{
		Elapsed:    math.Float64bits(res.ElapsedTime),
		MasterBusy: math.Float64bits(res.MasterBusy),
		MeanTA:     math.Float64bits(res.MeanTA),
		TASamples:  len(res.TASamples),
		Samples:    samplesDigest(res.TASamples),
		Archive:    archiveDigest(t, res.Final.Archive()),
	}
}

// TestTAScheduleCharacterization pins, bit for bit, the T_A schedule
// of the virtual-time drivers: which algorithm calls are charged as
// T_A, what each charge costs, and the order in which T_A and T_C
// draws share the master RNG. The constants were captured before the
// per-driver algorithm adapters were folded into master.Metered; any
// change to the charging rule shows up here even when the canonical
// event logs still agree.
func TestTAScheduleCharacterization(t *testing.T) {
	run := func(name string, fn func() (*Result, error), want taSchedule) {
		t.Helper()
		res, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := scheduleOf(t, res); got != want {
			t.Errorf("%s: schedule\n got %#v\nwant %#v", name, got, want)
		}
	}
	run("async", func() (*Result, error) { return RunAsync(gammaConfig(8, 2000)) },
		taSchedule{Elapsed: 0x3fd304df6f769e29, MasterBusy: 0x3fb1f989977fe7ef, MeanTA: 0x3ef829acb20c8be0, TASamples: 2007, Samples: 0xa170d4ec4a53a5b7, Archive: 0xadc71b806616d918})
	run("async-defer", func() (*Result, error) {
		cfg := gammaConfig(8, 2000)
		cfg.DeferArchive = true
		return RunAsync(cfg)
	}, taSchedule{Elapsed: 0x3fd32ac5553970c8, MasterBusy: 0x3fbda8233b536f92, MeanTA: 0x3ef804ca118e4af5, TASamples: 4006, Samples: 0xdac0b2f6fa333e51, Archive: 0xde576937bdd94e2a})
	run("sync", func() (*Result, error) { return RunSync(gammaConfig(8, 2000)) },
		taSchedule{Elapsed: 0x3fd8bfc1a5e86210, MasterBusy: 0x3fd708b36bfaa646, MeanTA: 0x3ef7d37350375536, TASamples: 4000, Samples: 0x986424d4a98a68bf, Archive: 0x5d936819a77eb209})

	res, err := RunIslands(IslandsConfig{Base: gammaConfig(5, 600), Islands: 3, MigrationEvery: 50})
	if err != nil {
		t.Fatal(err)
	}
	got := taSchedule{
		Elapsed:   math.Float64bits(res.ElapsedTime),
		MeanTA:    math.Float64bits(res.MeanTA),
		TASamples: len(res.TASamples),
		Samples:   samplesDigest(res.TASamples),
		Archive:   frontDigest(res.MergedFront),
	}
	if want := (taSchedule{Elapsed: 0x3fc4102ea561e937, MeanTA: 0x3ef7e961cbcc8f76, TASamples: 1845, Samples: 0xa6775f4e1bb03587, Archive: 0x60ef81d6076adc48}); got != want {
		t.Errorf("islands: schedule\n got %#v\nwant %#v", got, want)
	}
}

// termTimings is the part of a run that depends on where the T_F, T_C
// and queue-wait samples are taken and how they are totalled. T_F
// samples are digested in sorted order, so the pin holds whether they
// are collected per worker rank or in observation order.
type termTimings struct {
	MeanTC                   uint64
	TFSamples                int
	TFSorted                 uint64
	TFHist, TCHist, WaitHist uint64
}

func termTimingsOf(reg *obs.Registry, meanTC float64, tf []float64) termTimings {
	sorted := append([]float64(nil), tf...)
	sort.Float64s(sorted)
	return termTimings{
		MeanTC:    math.Float64bits(meanTC),
		TFSamples: len(tf),
		TFSorted:  samplesDigest(sorted),
		TFHist:    reg.Histogram(mTF, nil).Count(),
		TCHist:    reg.Histogram(mTC, nil).Count(),
		WaitHist:  reg.Histogram(mQueueWait, nil).Count(),
	}
}

// TestTermTimingsCharacterization pins the T_F, T_C and queue-wait
// bookkeeping of the virtual-time drivers: the bit-exact mean T_C, the
// T_F samples as a multiset, the mean T_F to 1e-12 relative (summation
// order may change), how many samples each master.* histogram
// receives, and — with a collector and an advisor attached — the trace
// sidecar bytes and the advisor's fitted report. The constants were
// captured before the per-driver timing fan-outs were folded into
// master.Timings.
func TestTermTimingsCharacterization(t *testing.T) {
	check := func(name string, got termTimings, meanTF float64, want termTimings, wantTF float64) {
		t.Helper()
		if got != want {
			t.Errorf("%s: timings\n got %#v\nwant %#v", name, got, want)
		}
		if math.Abs(meanTF-wantTF) > 1e-12*wantTF {
			t.Errorf("%s: MeanTF %v, want %v", name, meanTF, wantTF)
		}
	}
	run := func(name string, fn func(Config) (*Result, error), cfg Config, want termTimings, wantTF float64) {
		t.Helper()
		cfg.Metrics = obs.NewRegistry()
		res, err := fn(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(name, termTimingsOf(cfg.Metrics, res.MeanTC, res.TFSamples), res.MeanTF, want, wantTF)
	}
	deferred := gammaConfig(8, 2000)
	deferred.DeferArchive = true
	run("async", RunAsync, gammaConfig(8, 2000),
		termTimings{MeanTC: 0x3ed9179cf6f4a7a3, TFSamples: 2006, TFSorted: 0xe5007a63de5add28, TFHist: 2006, TCHist: 4006, WaitHist: 2000}, 0.0009989450937421258)
	run("async-defer", RunAsync, deferred,
		termTimings{MeanTC: 0x3ed937a983212fa1, TFSamples: 2006, TFSorted: 0x30710c991e0f489b, TFHist: 2006, TCHist: 4006, WaitHist: 2000}, 0.0009988455525748792)
	run("sync", RunSync, gammaConfig(8, 2000),
		termTimings{MeanTC: 0x3ed95e08227381ee, TFSamples: 2000, TFSorted: 0x5dabec48adbd5037, TFHist: 2000, TCHist: 3500}, 0.000997455433507028)

	base := gammaConfig(5, 600)
	base.Metrics = obs.NewRegistry()
	res, err := RunIslands(IslandsConfig{Base: base, Islands: 3, MigrationEvery: 50})
	if err != nil {
		t.Fatal(err)
	}
	check("islands", termTimingsOf(base.Metrics, 0, res.TFSamples), res.MeanTF,
		termTimings{TFSamples: 1809, TFSorted: 0xba719393f2099ee6, TFHist: 1809, TCHist: 3679}, 0.0010014492431790843)

	for _, tc := range []struct {
		deferArchive     bool
		sidecar, advisor uint64
	}{
		{false, 0xb66d97d4faff7a28, 0xaeaab073ce24b152},
		{true, 0x7020288ac4fd233f, 0xf7e27fb0c95a45ca},
	} {
		cfg := gammaConfig(8, 2000)
		cfg.DeferArchive = tc.deferArchive
		cfg.Trace = obs.NewCollector(obs.CollectorConfig{RunID: cfg.Seed, Rate: 1})
		cfg.Advisor = advisor.New(advisor.Config{})
		if _, err := RunAsync(cfg); err != nil {
			t.Fatal(err)
		}
		var sidecar bytes.Buffer
		if _, err := cfg.Trace.TraceLog().WriteTo(&sidecar); err != nil {
			t.Fatal(err)
		}
		report, err := json.Marshal(cfg.Advisor.Report())
		if err != nil {
			t.Fatal(err)
		}
		if got := fnvDigest(sidecar.Bytes()); got != tc.sidecar {
			t.Errorf("traced async (defer %v): sidecar digest %#x, want %#x", tc.deferArchive, got, tc.sidecar)
		}
		if got := fnvDigest(report); got != tc.advisor {
			t.Errorf("traced async (defer %v): advisor report digest %#x, want %#x", tc.deferArchive, got, tc.advisor)
		}
	}
}
