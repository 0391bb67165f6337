package parallel

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"borgmoea/internal/core"
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
