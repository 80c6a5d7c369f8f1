package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"

	"optima/internal/engine"
	"optima/internal/report"
)

// defaultSeed is every workload's default seed: the seed its digest is
// pinned at.
const defaultSeed = 1

// pinned holds each workload's output digest at the default seed on amd64
// (see pinnedDigest). A change that alters any returned cell by one bit
// fails the run; a change meant to alter results re-pins from the digest a
// default-seed run prints.
var pinned = map[string]string{
	wGolden:  "05f77d8346d69d02c2596cb9b072d80926e6dd0b7b320cc80c4a87daeafb0c7c",
	wExplore: "5a71a9123d47dddd4b90cf8d676295369d0b84336e68a7b6768fc6ef361e7993",
	wReplay:  "5a71a9123d47dddd4b90cf8d676295369d0b84336e68a7b6768fc6ef361e7993", // explore-cold's exploration 0
	wFleet:   "cf979fa29066502a18f13956005b5cbdc1d04c1c6b04390900041e3ce598057b",
}

// pinnedDigest returns the digest a run must reproduce, or "" when the run
// has none to match: another seed, another GOARCH, or the smoke sizes.
func pinnedDigest(workload string, seed uint64, smoke bool) string {
	if seed != defaultSeed || runtime.GOARCH != "amd64" || smoke {
		return ""
	}
	return pinned[workload]
}

// digest is a sha256 over returned cells, every float as its IEEE-754 bits:
// two outputs digest equal exactly when they are bit-identical.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) floats(xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		d.h.Write(b[:])
	}
}

// metrics adds each cell's key and every Metrics field, in order.
func (d *digest) metrics(ms ...engine.Metrics) {
	for _, m := range ms {
		d.floats(m.Config.Tau0, m.Config.VDAC0, m.Config.VDACFS,
			float64(m.Cond.Corner), m.Cond.VDD, m.Cond.TempC,
			m.EpsMul, m.EpsLarge, m.EpsSmall, m.EMul,
			m.SigmaMaxLSB, m.SigmaMaxVolt, m.LSBVolt)
	}
}

func (d *digest) charts(cs ...*report.Chart) {
	for _, c := range cs {
		for _, s := range c.Series {
			d.floats(s.X...)
			d.floats(s.Y...)
		}
	}
}

func (d *digest) bytes(b []byte) { d.h.Write(b) }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// sameDigest fails when an output's digest differs from the one it must
// reproduce.
func sameDigest(what, want, got string) error {
	if got != want {
		return fmt.Errorf("%s: digest %.12s, want %.12s", what, got, want)
	}
	return nil
}

// checkPinned fails when a run's digest differs from the pinned one; an
// empty pin means the run has none to match.
func checkPinned(workload, pin, got string) error {
	if pin == "" {
		return nil
	}
	return sameDigest(workload+" at the default seed", pin, got)
}
