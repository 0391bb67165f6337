package master

import (
	"time"

	"borgmoea/internal/core"
	"borgmoea/internal/obs"
	"borgmoea/internal/rng"
	"borgmoea/internal/stats"
)

// MeterConfig tells a Metered adapter where its T_A comes from, how it
// is charged, and who observes it. Every field is optional.
type MeterConfig struct {
	// TA samples each section's T_A, drawn on Rng right after the
	// section runs, so the draws interleave with whatever else shares
	// Rng (the DES drivers' T_C) in call order. Nil measures the
	// section's wall-clock duration instead.
	TA stats.Distribution
	// Rng is the stream TA draws from; in wall-clock mode it feeds
	// Stretch instead.
	Rng *rng.Source
	// Stretch, in wall-clock mode only, sleeps a sampled duration
	// inside every section, so the reported T_A includes it — the
	// federation's SimulateTA knob.
	Stretch stats.Distribution
	// Charge bills a section's T_A to the transport (a DES "algo"
	// hold, a realtime journal span) before it is reported.
	Charge func(ta float64)
	// Timings receives every T_A, keyed by the lease id of the result
	// the section folds in. Install wires its advisor and trace
	// collector, and Quality, into the core's hooks.
	Timings *Timings
	Quality *obs.QualitySampler
}

// Metered is the Algorithm adapter every driver runs. It wraps one
// Borg instance and treats each master critical section alike: Suggest,
// Accept, AcceptSuggest, ApplyStaged and Inject each count as one T_A
// section, timed or sampled per MeterConfig, charged, then reported
// once to its Timings. StageAccept is an append and stays uncharged.
type Metered struct {
	b   *core.Borg
	cfg MeterConfig
	// staged is the lease id of the latest StageAccept, which the
	// following ApplyStaged folds in.
	staged uint64
}

// NewMetered wraps b.
func NewMetered(b *core.Borg, cfg MeterConfig) *Metered {
	return &Metered{b: b, cfg: cfg}
}

// Install makes m the core's algorithm and wires its observers into
// the core's hooks: the Timings' trace collector becomes the protocol
// tracer, the quality sampler is attached and receives EvQuality, and
// the Timings' advisor receives OnAcceptFrom unless the caller set
// that hook already. Replay installs a Metered passed as
// ReplayConfig.Alg the same way.
func (m *Metered) Install(cfg *Config) {
	cfg.Alg = m
	if tm := m.cfg.Timings; tm != nil {
		if tm.Trace != nil {
			cfg.Tracer = tm.Trace
		}
		if tm.Advisor != nil && cfg.OnAcceptFrom == nil {
			cfg.OnAcceptFrom = tm.Advisor.ObserveAccept
		}
	}
	if q := m.cfg.Quality; q != nil {
		q.Attach(m.b)
		cfg.OnQuality = func(seq uint64, at float64) { q.Sample(seq, at) }
	}
}

func (m *Metered) Suggest() *core.Solution {
	t0 := m.start()
	s := m.b.Suggest()
	m.stop(t0, 0)
	return s
}

func (m *Metered) Accept(it *Item) {
	t0 := m.start()
	m.b.Accept(it.S)
	m.stop(t0, it.ID)
}

func (m *Metered) AcceptSuggest(it *Item) *core.Solution {
	t0 := m.start()
	m.b.Accept(it.S)
	next := m.b.Suggest()
	m.stop(t0, it.ID)
	return next
}

func (m *Metered) StageAccept(it *Item) {
	m.b.StageAccept(it.S)
	m.staged = it.ID
}

func (m *Metered) ApplyStaged() {
	t0 := m.start()
	m.b.ApplyStaged()
	m.stop(t0, m.staged)
}

// Inject folds an evaluated migrant in as its own T_A section: master
// time, but no function evaluation.
func (m *Metered) Inject(s *core.Solution) {
	t0 := m.start()
	m.b.InjectEvaluated(s)
	m.stop(t0, 0)
}

func (m *Metered) start() time.Time {
	if m.cfg.TA != nil {
		return time.Time{}
	}
	return time.Now()
}

// stop closes the section opened at t0: it settles its T_A, charges
// it and reports it, keyed by id (0 for a section that folds no result
// in).
func (m *Metered) stop(t0 time.Time, id uint64) {
	var ta float64
	if m.cfg.TA != nil {
		ta = m.cfg.TA.Sample(m.cfg.Rng)
	} else {
		if m.cfg.Stretch != nil {
			time.Sleep(time.Duration(m.cfg.Stretch.Sample(m.cfg.Rng) * float64(time.Second)))
		}
		ta = time.Since(t0).Seconds()
	}
	if m.cfg.Charge != nil {
		m.cfg.Charge(ta)
	}
	m.cfg.Timings.TA(id, ta)
}
