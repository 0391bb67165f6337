package master

import (
	"borgmoea/internal/advisor"
	"borgmoea/internal/obs"
)

// Timings is the one sink every driver reports the paper's model
// terms to: T_F, T_A and T_C (Eqs. 1–4) and the master's queue wait.
// Each method takes one sample and sends it to the matching master.*
// histogram (pinning the item's trace exemplar), the advisor's live fit
// and the trace collector, and folds T_F, T_A and T_C into the run's
// totals. Every sink is optional; a nil *Timings is inert.
//
// Timings takes no lock: a run reports from its single master loop, or
// from DES processes, which the engine runs one at a time.
type Timings struct {
	Meters  Meters
	Advisor *advisor.Advisor
	Trace   *obs.Collector
	// Capture keeps every T_F and T_A sample in the totals (the
	// drivers' TFSamples and TASamples); T_C keeps sum and count only.
	Capture bool

	// TotalTF, TotalTA and TotalTC accumulate the samples reported so
	// far; drivers read them once the run is over.
	TotalTF, TotalTA, TotalTC Term
}

// Term is the running total of one model term.
type Term struct {
	Sum float64
	N   uint64
	// Samples holds every sample in report order when Capture is set.
	Samples []float64
}

// Mean returns the mean sample (0 before the first).
func (t Term) Mean() float64 {
	if t.N == 0 {
		return 0
	}
	return t.Sum / float64(t.N)
}

// Merge folds o into t.
func (t *Term) Merge(o Term) {
	t.Sum += o.Sum
	t.N += o.N
	t.Samples = append(t.Samples, o.Samples...)
}

func (t *Term) add(d float64, capture bool) {
	t.Sum += d
	t.N++
	if capture {
		t.Samples = append(t.Samples, d)
	}
}

// TF reports one evaluation time of it, taken by worker (the driver's
// 1-based worker id; 0 for a master evaluating itself).
func (t *Timings) TF(it *Item, worker int, d float64) {
	if t == nil {
		return
	}
	t.TotalTF.add(d, t.Capture)
	t.Meters.TF.ObserveExemplar(d, exemplar(it))
	t.Advisor.ObserveTF(worker, d)
	if it != nil {
		t.Trace.ObserveTF(it.ID, d)
	}
}

// TA reports one master critical section. id is the lease id of the
// result the section folded in; 0 (a Suggest or an Inject) keeps the
// sample out of the trace.
func (t *Timings) TA(id uint64, d float64) {
	if t == nil {
		return
	}
	t.TotalTA.add(d, t.Capture)
	t.Meters.TA.Observe(d)
	t.Advisor.ObserveTA(d)
	if id != 0 {
		t.Trace.ObserveTA(id, d)
	}
}

// TCSend reports the T_C of one master→worker message carrying it; nil
// for traffic outside a lease (sync scatters, migrants).
func (t *Timings) TCSend(it *Item, d float64) {
	if t == nil {
		return
	}
	t.tc(it, d)
	if it != nil {
		t.Trace.ObserveTCSend(it.ID, d)
	}
}

// TCRecv reports the T_C of one worker→master message carrying it; nil
// for hellos, sync gathers and migrants.
func (t *Timings) TCRecv(it *Item, d float64) {
	if t == nil {
		return
	}
	t.tc(it, d)
	if it != nil {
		t.Trace.ObserveTCRecv(it.ID, d)
	}
}

func (t *Timings) tc(it *Item, d float64) {
	t.TotalTC.add(d, false)
	t.Meters.TC.ObserveExemplar(d, exemplar(it))
	t.Advisor.ObserveTC(d)
}

// Wait reports how long a message carrying it (nil for a hello) sat in
// the master's queue.
func (t *Timings) Wait(it *Item, d float64) {
	if t == nil {
		return
	}
	t.Meters.QueueWait.ObserveExemplar(d, exemplar(it))
	t.Advisor.ObserveQueueWait(d)
	if it != nil {
		t.Trace.ObserveQueueWait(it.ID, d)
	}
}

// exemplar is it's trace id when the trace is sampled, else 0.
func exemplar(it *Item) uint64 {
	if it == nil {
		return 0
	}
	return it.Trace.Exemplar()
}
