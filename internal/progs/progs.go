// Package progs contains the five benchmark programs of the paper's
// evaluation (Table 3) — dijkstra, blackscholes, swaptions, 052.alvinn and
// enc-md5 — rewritten in the repository's IR with the same loop and
// data-structure shapes that make them resist static parallelization, plus
// native Go reference implementations used to validate interpreter and
// parallel executions.
//
// The original benchmarks are C/C++ programs (MiBench, PARSEC, SPEC,
// Trimaran); inputs here are synthesized with deterministic generators so
// that train/ref/alt profiles exist without the original datasets (see
// DESIGN.md's substitution table).
package progs

import (
	"fmt"
	"math"

	"privateer/internal/ir"
)

// f2b converts a float64 to its IR word representation.
func f2b(v float64) uint64 { return math.Float64bits(v) }

// Input parameterizes a program build. The meaning of N/M/K is
// program-specific (documented per program).
type Input struct {
	// Name labels the input (train/ref/alt or custom).
	Name string
	// N, M, K are program-specific size parameters.
	N, M, K int64
}

// String renders the input as its name and size parameters, as reports
// print it: "train(N=12,M=0,K=0)".
func (in Input) String() string {
	return fmt.Sprintf("%s(N=%d,M=%d,K=%d)", in.Name, in.N, in.M, in.K)
}

// Program bundles one benchmark: the IR builder, the native reference, and
// standard inputs.
type Program struct {
	// Name is the benchmark's name as used in the paper.
	Name string
	// Description summarizes the program and why privatization is needed.
	Description string
	// Build constructs a fresh IR module for the input. Modules are
	// single-use: the pipeline transforms them in place.
	Build func(in Input) *ir.Module
	// Reference executes the same algorithm natively and returns the
	// program result and its printed output.
	Reference func(in Input) (uint64, string)
	// FloatResult marks programs whose result is a float64 bit pattern
	// (compared with tolerance: parallel reduction reassociation).
	FloatResult bool
	// Train, Ref and Alt are the paper's three input classes.
	Train, Ref, Alt Input
	// Huge is the scaled input class behind the memory-system size knob:
	// roughly two orders of magnitude more resident footprint than Ref
	// (bounded per program by interpreted runtime — see each program's
	// definition), used by the elision and staticsep experiments and the
	// soak lane.
	Huge Input
}

// Input returns the named input class ("train", "ref", "alt" or "huge");
// ok is false for any other name.
func (p *Program) Input(name string) (in Input, ok bool) {
	switch name {
	case "train":
		return p.Train, true
	case "ref":
		return p.Ref, true
	case "alt":
		return p.Alt, true
	case "huge":
		return p.Huge, true
	}
	return Input{}, false
}

// All returns the five benchmarks in the paper's Table 3 order.
func All() []*Program {
	return []*Program{
		Alvinn(),
		Dijkstra(),
		Blackscholes(),
		Swaptions(),
		EncMD5(),
	}
}

// ByName returns the named benchmark or nil.
func ByName(name string) *Program {
	for _, p := range All() {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// lcg is the deterministic input generator shared by builders and
// references (a 64-bit linear congruential generator).
type lcg struct{ s uint64 }

func newLCG(seed uint64) *lcg { return &lcg{s: seed*2862933555777941757 + 3037000493} }

func (r *lcg) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s >> 17
}

// intn returns a value in [0, n).
func (r *lcg) intn(n uint64) uint64 { return r.next() % n }

// float01 returns a float in [0, 1).
func (r *lcg) float01() float64 { return float64(r.next()%(1<<30)) / float64(1<<30) }

// putI64 appends v little-endian to buf.
func putI64(buf []byte, off int, v uint64) {
	for i := 0; i < 8; i++ {
		buf[off+i] = byte(v >> (8 * i))
	}
}

// i64Init builds a little-endian initializer for a slice of int64 values.
func i64Init(vals []int64) []byte {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		putI64(buf, 8*i, uint64(v))
	}
	return buf
}

// f64Init builds a little-endian initializer for a slice of float64 values.
func f64Init(vals []float64) []byte {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		putI64(buf, 8*i, f2b(v))
	}
	return buf
}
