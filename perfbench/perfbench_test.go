package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"io"
	"maps"
	"math"
	"net"
	"os"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]uint32, 100)
	for i := range s {
		s[i] = uint32(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]uint32{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	if tailPercentile(1000, 0.99) != true {
		t.Error("p99 of 1000 samples has 10 beyond it")
	}
	if tailPercentile(999, 0.99) != false {
		t.Error("p99 of 999 samples has only 9 beyond it")
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2, 10}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

func TestClassifyStack(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"borgmoea/internal/core.(*Population).Add", "main.serialRep"}, "core"},
		// A copy inside Suggest is core's time, not the runtime's.
		{[]string{"runtime.memmove", "borgmoea/internal/core.(*Borg).Suggest"}, "core"},
		{[]string{"math.sin", "math.Sin", "borgmoea/internal/problems.evalSpherical"}, "problems"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.makeslice", "borgmoea/internal/operators.clone"}, "runtime.gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.notewakeup", "runtime.ready", "runtime.chansend1", "borgmoea/internal/des.(*Process).Hold"}, "runtime.sched"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, "runtime.sched"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.RawSyscall6", "syscall.write", "internal/poll.(*FD).Write", "net.(*conn).Write", "borgmoea/internal/wire.(*Conn).Send"}, "syscall"},
		{[]string{"time.now", "main.(*timedProblem).Evaluate"}, "other"},
		{[]string{"borgmoea/internal/obs.(*Histogram).Observe"}, "other"},
		{[]string{"borgmoea/internal/wire.DecodeFrameInto", "borgmoea/internal/wire.(*Conn).Recv"}, "wire"},
		{[]string{"runtime.memmove"}, "runtime.sched"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := classifyStack(c.stack); got != c.want {
			t.Errorf("classifyStack(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// protoBuf encodes just enough of profile.proto for the decoder tests.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *protoBuf) bytes(field int, data []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
}

func (p *protoBuf) packed(field int, vs ...uint64) {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	p.bytes(field, inner)
}

func TestCPUByLayerDecodesProfile(t *testing.T) {
	var prof protoBuf
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"borgmoea/internal/core.(*Population).Add", "runtime.memmove", "borgmoea/internal/des.(*Engine).Run"}
	valueType := func(typ, unit uint64) []byte {
		var v protoBuf
		v.varint(1, typ)
		v.varint(2, unit)
		return v.b
	}
	prof.bytes(1, valueType(1, 2))
	prof.bytes(1, valueType(3, 4))
	// Sample 1: memmove (location 2) called from core (location 1),
	// location ids packed; 30 ms.
	var s1 protoBuf
	s1.packed(1, 2, 1)
	s1.packed(2, 3, 30_000_000)
	prof.bytes(2, s1.b)
	// Sample 2: des, location id and values unpacked; 10 ms.
	var s2 protoBuf
	s2.varint(1, 3)
	s2.varint(2, 1)
	s2.varint(2, 10_000_000)
	prof.bytes(2, s2.b)
	for id, fn := range []uint64{5, 6, 7} {
		var line, loc, f protoBuf
		line.varint(1, uint64(id+1))
		loc.varint(1, uint64(id+1))
		loc.bytes(4, line.b)
		prof.bytes(4, loc.b)
		f.varint(1, uint64(id+1))
		f.varint(2, fn)
		prof.bytes(5, f.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	got, spans, err := cpuByLayer(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got["core"] != 30_000_000 || got["des"] != 10_000_000 || len(got) != 2 {
		t.Errorf("cpuByLayer = %v, want core 30ms and des 10ms", got)
	}
	if spans["core.population.add"] != 30_000_000 || len(spans) != 1 {
		t.Errorf("cpuByLayer spans = %v, want core.population.add 30ms", spans)
	}
}

func TestAddSpansCountsEachSpanOnce(t *testing.T) {
	const core = "borgmoea/internal/core."
	// Accept reached twice through ApplyStaged, with the archive
	// insert at the leaf.
	stack := []string{core + "(*Archive).Add", core + "(*Borg).Accept", core + "(*Borg).ApplyStaged",
		core + "(*Borg).Accept", "borgmoea/internal/master.(*Core).Handle"}
	spans := map[string]int64{}
	addSpans(spans, stack, 7)
	want := map[string]int64{"core.accept": 7, "core.archive.add": 7}
	if !maps.Equal(spans, want) {
		t.Errorf("addSpans = %v, want %v", spans, want)
	}
}

func TestCPUByLayerRejectsGarbage(t *testing.T) {
	if _, _, err := cpuByLayer([]byte("not a profile")); err == nil {
		t.Error("cpuByLayer accepted bytes that are not gzip")
	}
}

func TestCountingConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var c connCounters
	cl := countingListener{Listener: ln, c: &c}
	defer cl.Close()

	done := make(chan error, 1)
	go func() {
		peer, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			done <- err
			return
		}
		defer peer.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(peer, buf); err != nil {
			done <- err
			return
		}
		time.Sleep(20 * time.Millisecond) // the server's Read waits for this
		_, err = peer.Write([]byte("world!"))
		done <- err
	}()
	conn, err := cl.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if c.bytesWritten.Load() != 5 || c.writes.Load() != 1 {
		t.Errorf("wrote %d bytes in %d calls, want 5 in 1", c.bytesWritten.Load(), c.writes.Load())
	}
	if c.bytesRead.Load() != 6 || c.reads.Load() < 1 {
		t.Errorf("read %d bytes in %d calls, want 6 in at least 1", c.bytesRead.Load(), c.reads.Load())
	}
	if wait := time.Duration(c.readWaitNanos.Load()); wait < 10*time.Millisecond {
		t.Errorf("read wait %v, want at least the peer's 20ms pause minus slack", wait)
	}
}

// The traced run must measure the same program: with the same seed,
// the wrapped problem and operators leave the final archive
// byte-identical.
func TestWrappersLeaveArchiveIdentical(t *testing.T) {
	for _, c := range []struct {
		name  string
		rep   func(*inputs, bool, uint64) (*rep, error)
		evals uint64
	}{
		{"serial", serialRep, 5000},
		{"des", desRep, 3000},
	} {
		in := &inputs{seed: 7, turn: gapRecorder{gaps: make([]uint32, 0, c.evals)}}
		plain, err := c.rep(in, false, c.evals)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := c.rep(in, true, c.evals)
		if err != nil {
			t.Fatal(err)
		}
		if plain.digest != traced.digest {
			t.Errorf("%s: wrapped run's archive differs from the plain run's", c.name)
		}
		if traced.layer["operators.sbx.calls"] == 0 || traced.layer["problems.evaluate.calls"] < float64(c.evals) {
			t.Errorf("%s: wrappers did not see the run: %v", c.name, traced.layer)
		}
	}
}

// BENCHMARK.json must declare exactly the workloads and metrics the
// benchmark prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %q: %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", kind, i, m, want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}
