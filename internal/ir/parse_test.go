package ir

import (
	"testing"
)

const sampleIR = `
module sample
global @table [64 bytes] heap=private
global @seed [8 bytes] init=2a00000000000000

func @bump(%x i64) i64 {
entry:
	%v1 = const 1
	%v2 = add %x, %v1
	ret %v2
}

func @main() i64 {
entry:
	%g = global @table
	%s = global @seed
	%init = load.8 %s
	br label head
head:
	%i = phi %zero [entry], %next [body]
	%zero = const 0
	%lim = const 8
	%c = slt %i, %lim
	condbr %c, label body, label done
body:
	%off = mul %i, %eight
	%eight = const 8
	%slot = add %g, %off
	%val = call @bump %i
	store.8 %val, %slot
	%next = add %i, %one
	%one = const 1
	br label head
done:
	%r = load.8 %g
	ret %r
}
`

// Note: sampleIR deliberately uses forward references (%zero before its
// definition, %next from the loop body) — legal SSA as long as definitions
// dominate uses at execution time is not required for parsing; the verifier
// only checks structure.

func TestParseSample(t *testing.T) {
	m, err := Parse(sampleIR)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "sample" {
		t.Errorf("module name %q", m.Name)
	}
	g := m.Globals["table"]
	if g == nil || g.Size != 64 || g.Heap != HeapPrivate {
		t.Fatalf("global table wrong: %+v", g)
	}
	if seed := m.Globals["seed"]; seed == nil || len(seed.Init) != 8 || seed.Init[0] != 0x2a {
		t.Fatalf("global seed init wrong: %+v", seed)
	}
	f := m.Funcs["main"]
	if f == nil || len(f.Blocks) != 4 {
		t.Fatalf("main blocks = %v", f)
	}
	// The phi must reference the body-defined %next.
	var phi *Instr
	f.Instrs(func(in *Instr) {
		if in.Op == OpPhi {
			phi = in
		}
	})
	if phi == nil || len(phi.Args) != 2 || phi.Args[1] == nil {
		t.Fatalf("phi not resolved: %v", phi)
	}
}

func TestParseFormatFixpoint(t *testing.T) {
	m, err := Parse(sampleIR)
	if err != nil {
		t.Fatal(err)
	}
	once := FormatModule(m)
	m2, err := Parse(once)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, once)
	}
	twice := FormatModule(m2)
	if once != twice {
		t.Errorf("format not a fixpoint:\n--- once ---\n%s\n--- twice ---\n%s", once, twice)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                                    // no module
		"module x\nbogus line",                // junk
		"module x\nglobal @g [z bytes]",       // bad size
		"module x\nfunc @f() i64 {\nentry:\n", // unterminated
		"module x\nfunc @f() i64 {\nentry:\n\t%v1 = frobnicate %v0\n}\n",                                              // bad opcode
		"module x\nfunc @f() i64 {\nentry:\n\t%v1 = global @nope\n\tret %v1\n}\n",                                     // unknown global
		"module x\nfunc @f() void {\nentry:\n\t%v1 = const 1\n}\n",                                                    // no terminator
		"module x\nfunc @f() i64 {\nentry:\n\t%x = fconst 2\n\t%y = builtin !pow %x\n\t%r = fptosi %y\n\tret %r\n}\n", // builtin short of operands
	}
	for i, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d: bad input accepted:\n%s", i, src)
		}
	}
}

func TestParsePrintAndIntrinsics(t *testing.T) {
	src := `
module intr
func @main() void {
entry:
	%sz = const 32
	%p = h_alloc [short-lived] %sz
	check_heap [short-lived] %p
	private_read.8 %p
	private_write.4 %p
	redux_write.8.add.f64 %p
	%x = load.8f %p
	%y = fconst 1.5
	predict %x, %y
	print "x=%g bytes\n" %x
	h_dealloc [short-lived] %p
	ret
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var halloc, rw, pr *Instr
	m.Funcs["main"].Instrs(func(in *Instr) {
		switch in.Op {
		case OpHAlloc:
			halloc = in
		case OpReduxWrite:
			rw = in
		case OpPrint:
			pr = in
		}
	})
	if halloc == nil || halloc.Heap != HeapShortLived {
		t.Errorf("h_alloc heap wrong: %v", halloc)
	}
	if rw == nil || rw.Size != 8 || rw.Redux != ReduxAddF64 {
		t.Errorf("redux_write wrong: %+v", rw)
	}
	if pr == nil || pr.Str != "x=%g bytes\n" || len(pr.Args) != 1 {
		t.Errorf("print wrong: %+v", pr)
	}
	// Round-trip the intrinsics too.
	once := FormatModule(m)
	if _, err := Parse(once); err != nil {
		t.Fatalf("reparse: %v\n%s", err, once)
	}
}

func TestParsePreservesNegativeAndFloatConsts(t *testing.T) {
	src := `
module c
func @main() f64 {
entry:
	%a = const -42
	%b = fconst -2.5e-09
	%c = sitofp %a
	%d = fadd %b, %c
	ret %d
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	once := FormatModule(m)
	m2, err := Parse(once)
	if err != nil {
		t.Fatal(err)
	}
	if FormatModule(m2) != once {
		t.Error("const round-trip unstable")
	}
	var neg *Instr
	m.Funcs["main"].Instrs(func(in *Instr) {
		if in.Op == OpConst {
			neg = in
		}
	})
	if int64(neg.Const) != -42 {
		t.Errorf("negative const = %d", int64(neg.Const))
	}
}

func TestParseDuplicateNamesStayDistinct(t *testing.T) {
	// Two instructions whose source-level Name collides print with
	// distinct id suffixes and parse back as distinct values.
	m := NewModule("dup")
	f := m.NewFunc("main", I64)
	b := NewBuilder(f)
	x1 := b.I(1)
	x1.Name = "x"
	x2 := b.I(2)
	x2.Name = "x"
	b.Ret(b.Add(x1, x2))
	text := FormatModule(m)
	m2, err := Parse(text)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	if FormatModule(m2) != text {
		t.Error("duplicate-name round trip unstable")
	}
}
