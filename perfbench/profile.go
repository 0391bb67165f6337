package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// layers lists the CPU-profile buckets in report order: the repo's
// modules that run on a workload's hot path, then the Go runtime's
// scheduler and collector, then everything else.
var layers = []string{
	"core", "operators", "problems", "master", "parallel", "des", "cluster",
	"wire", "model", "stats", "rng", "syscall", "runtime.sched", "runtime.gc", "other",
}

// repoLayers are the internal packages that map to a bucket of their
// own; any other package of the module lands in "other".
var repoLayers = map[string]bool{
	"core": true, "operators": true, "problems": true, "master": true,
	"parallel": true, "des": true, "cluster": true, "wire": true,
	"model": true, "stats": true, "rng": true,
}

const repoPrefix = "borgmoea/internal/"

// coreSpans are core functions whose inclusive CPU time the traced run
// reports, in report order. They split core's share into Suggest and
// Accept, and Accept's into its population and archive inserts, on
// every workload, including those where the program, not the
// benchmark, makes the calls.
var coreSpans = []struct{ fn, name string }{
	{repoPrefix + "core.(*Borg).Suggest", "core.suggest"},
	{repoPrefix + "core.(*Borg).Accept", "core.accept"},
	{repoPrefix + "core.(*Population).Add", "core.population.add"},
	{repoPrefix + "core.(*Archive).Add", "core.archive.add"},
}

// gcPrefixes name runtime functions whose time belongs to allocation and
// garbage collection, wherever they sit on the stack.
var gcPrefixes = []string{
	"runtime.gc", "runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
	"runtime.growslice", "runtime.mcache", "runtime.(*mcache)", "runtime.(*mcentral)",
	"runtime.(*mheap)", "runtime.(*mspan)", "runtime.(*gcWork)", "runtime.(*gcControllerState)",
	"runtime.(*pageAlloc)", "runtime.(*sweepLocked)", "runtime.(*sweepLocker)",
	"runtime.scanobject", "runtime.scanblock", "runtime.scanstack", "runtime.scanframeworker",
	"runtime.greyobject", "runtime.markroot", "runtime.sweepone", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.wbBufFlush", "runtime.findObject", "runtime.heapSetType",
	"runtime.bulkBarrierPreWrite", "runtime.typePointers",
	"runtime.(*typePointers)", "runtime.spanOf", "runtime.nextFreeFast", "runtime.deductAssistCredit",
	"runtime.(*scavengerState)", "runtime.(*gcBits)", "runtime.newMarkBits", "runtime.rawbyteslice",
	"runtime.rawstring", "runtime.makemap", "runtime.newarray",
}

// schedPrefixes name runtime functions that park, wake or switch
// goroutines (channel hand-offs included).
var schedPrefixes = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark",
	"runtime.goready", "runtime.ready", "runtime.goexit", "runtime.mcall", "runtime.gosched",
	"runtime.Gosched", "runtime.chansend", "runtime.chanrecv", "runtime.selectgo",
	"runtime.closechan", "runtime.lock", "runtime.unlock", "runtime.futex", "runtime.notesleep",
	"runtime.notewakeup", "runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.runqget",
	"runtime.runqput", "runtime.runqgrab", "runtime.runqsteal", "runtime.casgstatus",
	"runtime.execute", "runtime.gogo", "runtime.newproc", "runtime.mstart", "runtime.sysmon",
	"runtime.usleep", "runtime.osyield", "runtime.netpoll", "runtime.resetspinning",
	"runtime.checkTimers", "runtime.stealWork", "runtime.semacquire", "runtime.semrelease",
	"runtime.send", "runtime.recv", "runtime.(*timers)", "runtime.entersyscall",
	"runtime.exitsyscall", "runtime.reentersyscall", "runtime.handoffp", "runtime.acquirep",
	"runtime.releasep", "runtime.goschedImpl", "runtime.runtimer", "runtime.(*waitq)",
	"runtime.procyield", "runtime.(*randomEnum)", "runtime.globrunq",
}

// syscallPackages put socket and system-call time in the syscall
// bucket.
var syscallPackages = map[string]bool{
	"syscall": true, "internal/poll": true, "net": true, "os": true,
	"internal/runtime/syscall": true, "runtime/internal/syscall": true,
}

// funcPackage returns the import path of a fully qualified Go function
// name such as "borgmoea/internal/core.(*Population).Add".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// classifyStack names the layer a CPU sample belongs to. stack runs
// from the leaf frame to the root. The leaf frame's package decides,
// with three refinements. Runtime frames that allocate or collect
// count as runtime.gc, and frames that park, wake or switch goroutines
// as runtime.sched. Socket and system-call frames count as syscall.
// Other standard-library helpers (memmove, map lookups, math, sort,
// time) are charged to their first caller outside the standard
// library, so that a memmove inside core.Suggest counts as core.
func classifyStack(stack []string) string {
	gc, sched := false, false
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if pkg == "runtime" {
			gc = gc || hasAnyPrefix(fn, gcPrefixes)
			sched = sched || hasAnyPrefix(fn, schedPrefixes)
			continue
		}
		switch {
		case gc:
			return "runtime.gc"
		case sched:
			return "runtime.sched"
		case syscallPackages[pkg]:
			return "syscall"
		case strings.HasPrefix(pkg, repoPrefix):
			layer, _, _ := strings.Cut(strings.TrimPrefix(pkg, repoPrefix), "/")
			if repoLayers[layer] {
				return layer
			}
			return "other"
		case pkg == "main" || strings.Contains(pkg, "."):
			// The benchmark itself, or a package outside the
			// standard library.
			return "other"
		}
	}
	switch {
	case gc:
		return "runtime.gc"
	case sched || len(stack) > 0 && funcPackage(stack[0]) == "runtime":
		return "runtime.sched"
	}
	return "other"
}

// cpuByLayer decodes a gzip-compressed pprof CPU profile, as written by
// runtime/pprof, and sums each sample's CPU nanoseconds into the layer
// classifyStack picks for its stack, and into each of the coreSpans
// on its stack.
func cpuByLayer(gzipped []byte) (layerNs, spanNs map[string]int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gzipped))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, nil, err
	}
	nsIndex := -1
	for i, st := range p.sampleTypes {
		if p.str(st) == "nanoseconds" {
			nsIndex = i
		}
	}
	if nsIndex < 0 {
		return nil, nil, errors.New("profile: no nanoseconds sample type")
	}
	layerNs = make(map[string]int64, len(layers))
	spanNs = make(map[string]int64, len(coreSpans))
	var stack []string
	for _, s := range p.samples {
		if nsIndex >= len(s.values) {
			continue
		}
		stack = stack[:0]
		for _, locID := range s.locations {
			loc := p.locations[locID]
			// Inlined frames come innermost first.
			for _, fnID := range loc {
				stack = append(stack, p.str(p.functions[fnID]))
			}
		}
		ns := int64(s.values[nsIndex])
		layerNs[classifyStack(stack)] += ns
		addSpans(spanNs, stack, ns)
	}
	return layerNs, spanNs, nil
}

// addSpans adds ns to each of the coreSpans on stack, once even when a
// recursive call puts it on the stack more than once.
func addSpans(spanNs map[string]int64, stack []string, ns int64) {
	for _, sp := range coreSpans {
		if slices.Contains(stack, sp.fn) {
			spanNs[sp.name] += ns
		}
	}
}

// profile is the subset of profile.proto the layer grouping needs.
type profile struct {
	sampleTypes []int64 // string-table index of each sample type's unit
	samples     []sample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

type sample struct {
	locations []uint64
	values    []uint64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// decodeProfile parses an uncompressed profile.proto message.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			var unit int64
			err := eachField(data, func(n, _ int, v uint64, _ []byte) error {
				if n == 2 {
					unit = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, unit)
			return err
		case 2: // sample: location_id=1, value=2
			var s sample
			err := eachField(data, func(n, w int, v uint64, d []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locations, w, v, d)
				case 2:
					return appendVarints(&s.values, w, v, d)
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location: id=1, line=4 {function_id=1}
			var id uint64
			var fns []uint64
			err := eachField(data, func(n, _ int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(d, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function: id=1, name=2
			var id uint64
			var name int64
			err := eachField(data, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendVarints appends a repeated integer field that may be encoded
// one value per field (wire type 0) or packed (wire type 2).
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message, handing varint
// fields their value and length-delimited fields their bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
