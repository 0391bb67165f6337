package master

import (
	"testing"

	"borgmoea/internal/advisor"
	"borgmoea/internal/core"
	"borgmoea/internal/obs"
	"borgmoea/internal/problems"
	"borgmoea/internal/rng"
	"borgmoea/internal/stats"
)

// TestMeteredSections pins the charging rule: every algorithm call but
// StageAccept is one T_A section, each charged exactly once with the
// value the observers saw.
func TestMeteredSections(t *testing.T) {
	p := problems.NewDTLZ2(3)
	b, err := core.New(p, core.Config{Epsilons: core.UniformEpsilons(3, 0.1), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var charged []float64
	reg := obs.NewRegistry()
	m := NewMetered(b, MeterConfig{
		TA:      stats.NewUniform(1, 2),
		Rng:     rng.New(1),
		Charge:  func(ta float64) { charged = append(charged, ta) },
		Capture: true,
		Hist:    NewMeters(reg).TA,
	})
	eval := func(id uint64, s *core.Solution) *Item {
		core.EvaluateSolution(p, s)
		return &Item{ID: id, S: s}
	}
	a := m.Suggest()
	next := m.AcceptSuggest(eval(1, a))
	m.StageAccept(eval(2, next))
	m.ApplyStaged()
	m.Accept(eval(3, m.Suggest()))
	m.Inject(eval(4, m.Suggest()).S)

	const sections = 7 // 3 Suggest + AcceptSuggest + ApplyStaged + Accept + Inject
	if len(charged) != sections || m.Count() != sections {
		t.Fatalf("charged %d sections (count %d), want %d", len(charged), m.Count(), sections)
	}
	sum := 0.0
	for i, ta := range charged {
		if ta != m.Samples()[i] {
			t.Fatalf("section %d charged %v but captured %v", i, ta, m.Samples()[i])
		}
		sum += ta
	}
	if m.Sum() != sum || m.Mean() != sum/sections {
		t.Fatalf("Sum %v Mean %v, want %v and %v", m.Sum(), m.Mean(), sum, sum/sections)
	}
	if got := reg.Histogram(MetricTA, nil).Count(); got != sections {
		t.Fatalf("%s observed %d sections, want %d", MetricTA, got, sections)
	}
}

// TestMeteredInstall: Install wires the adapter and its observers into
// the core's hooks, keeping an OnAcceptFrom the caller set.
func TestMeteredInstall(t *testing.T) {
	b, err := core.New(problems.NewDTLZ2(3), core.Config{Epsilons: core.UniformEpsilons(3, 0.1), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector(obs.CollectorConfig{RunID: 1, Rate: 1})
	q := obs.NewQualitySampler(obs.QualityConfig{Every: 10})
	m := NewMetered(b, MeterConfig{Advisor: advisor.New(advisor.Config{}), Trace: col, Quality: q})

	var cfg Config
	m.Install(&cfg)
	if cfg.Alg != m || cfg.Tracer != col || cfg.OnQuality == nil || cfg.OnAcceptFrom == nil {
		t.Fatalf("Install left hooks unset: %+v", cfg)
	}

	called := false
	own := Config{OnAcceptFrom: func(int, uint64, float64) { called = true }}
	m.Install(&own)
	own.OnAcceptFrom(1, 1, 0)
	if !called {
		t.Fatal("Install replaced the caller's OnAcceptFrom")
	}

	var bare Config
	NewMetered(b, MeterConfig{}).Install(&bare)
	if bare.Tracer != nil || bare.OnQuality != nil || bare.OnAcceptFrom != nil {
		t.Fatal("an adapter without observers installed hooks")
	}
}
