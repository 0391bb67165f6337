package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"

	"borgmoea/internal/core"
	"borgmoea/internal/metrics"
	"borgmoea/internal/problems"
)

// Quality of a final ε-archive against the analytic front. Both seeds
// are fixed, so the figures vary only with the archive.
const (
	hvSamples      = metrics.DefaultHVSamples
	hvSeed         = 0x6876   // Monte Carlo stream of the hypervolume estimate
	refFrontPoints = 5000     // reference-front sample for IGD
	refFrontSeed   = 0x726566 // seed of that sample
)

// quality holds a front's normalised hypervolume and its IGD.
type quality struct{ hv, igd float64 }

// frontQuality measures front, a set of objective vectors of the named
// 5-objective problem whose Pareto front is the unit sphere Σf² = 1:
// hypervolume against metrics.RefPointFor, divided by the ideal
// sphere's, and the inverted generational distance to
// problems.ReferenceFront.
func frontQuality(problem string, front [][]float64) quality {
	const m = 5
	ref := metrics.RefPointFor(problem, m)
	hv := metrics.HypervolumeMC(front, ref, hvSamples, hvSeed)
	ideal := problems.IdealSphereHypervolume(m, ref[0])
	refFront := problems.ReferenceFront(problem, m, refFrontPoints, refFrontSeed)
	return quality{hv: hv / ideal, igd: metrics.InvertedGenerationalDistance(front, refFront)}
}

// tolerance is the quality a workload's final archive must reach to
// pass its correctness check.
type tolerance struct{ minHV, maxIGD float64 }

func (t tolerance) check(q quality) error {
	if !(q.hv >= t.minHV) {
		return fmt.Errorf("normalised hypervolume %.4f below %.2f", q.hv, t.minHV)
	}
	if !(q.igd <= t.maxIGD) {
		return fmt.Errorf("IGD %.4f above %.2f", q.igd, t.maxIGD)
	}
	return nil
}

// archiveDigest hashes the archive's serialised form, so that two runs
// can be compared byte for byte.
func archiveDigest(a *core.Archive) ([32]byte, error) {
	var buf bytes.Buffer
	if err := core.SaveArchive(&buf, a); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(buf.Bytes()), nil
}
