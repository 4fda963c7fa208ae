package ir

import (
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Parse reads the textual IR produced by FormatModule back into a Module.
// The grammar is exactly the printer's output: a module header, global
// declarations, and functions of labeled basic blocks. Parse and
// FormatModule round-trip: Parse(FormatModule(m)) formats identically and
// executes identically.
//
// Value names are per-function (%v12, %node, %argc); forward references
// (phis, loop-carried values) are resolved in a second pass.
func Parse(text string) (*Module, error) {
	p := &parser{lines: strings.Split(text, "\n")}
	return p.parse()
}

// MustParse is Parse for tests and tools with trusted input.
func MustParse(text string) *Module {
	m, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return m
}

type parser struct {
	lines []string
	pos   int
	mod   *Module
}

type pendingRef struct {
	instr *Instr
	argIx int
	name  string
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("ir parse: line %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *parser) next() (string, bool) {
	for p.pos < len(p.lines) {
		line := strings.TrimSpace(p.lines[p.pos])
		p.pos++
		if line != "" {
			return line, true
		}
	}
	return "", false
}

func (p *parser) peek() (string, bool) {
	save := p.pos
	line, ok := p.next()
	p.pos = save
	return line, ok
}

func (p *parser) parse() (*Module, error) {
	line, ok := p.next()
	if !ok || !strings.HasPrefix(line, "module ") {
		return nil, p.errf("expected 'module <name>'")
	}
	fields := strings.Fields(line)
	p.mod = NewModule(fields[1])
	for _, f := range fields[2:] {
		if name, found := strings.CutPrefix(f, "entry="); found {
			p.mod.EntryName = name
		}
	}
	for {
		line, ok := p.peek()
		if !ok {
			break
		}
		switch {
		case strings.HasPrefix(line, "global "):
			p.next()
			if err := p.parseGlobal(line); err != nil {
				return nil, err
			}
		case strings.HasPrefix(line, "func "):
			p.next()
			if err := p.parseFunc(line); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf("unexpected top-level line %q", line)
		}
	}
	// Call results adopt the callee's (now known) return type.
	for _, name := range p.mod.FuncNames() {
		p.mod.Funcs[name].Instrs(func(in *Instr) {
			if in.Op == OpCall && in.Typ != Void && in.Callee != nil {
				in.Typ = in.Callee.RetType
			}
		})
	}
	if err := Verify(p.mod); err != nil {
		return nil, fmt.Errorf("ir parse: %w", err)
	}
	return p.mod, nil
}

// parseGlobal handles: global @name [N bytes] heap=private init=<hex>
func (p *parser) parseGlobal(line string) error {
	fields := strings.Fields(line)
	if len(fields) < 3 || !strings.HasPrefix(fields[1], "@") {
		return p.errf("bad global declaration %q", line)
	}
	name := fields[1][1:]
	sizeTok := strings.TrimPrefix(fields[2], "[")
	size, err := strconv.ParseInt(sizeTok, 10, 64)
	if err != nil {
		return p.errf("bad global size in %q", line)
	}
	if p.mod.Globals[name] != nil {
		return p.errf("duplicate global @%s", name)
	}
	g := p.mod.NewGlobal(name, size)
	for _, f := range fields[min(len(fields), 4):] {
		if h, found := strings.CutPrefix(f, "heap="); found {
			k, err := heapByName(h)
			if err != nil {
				return p.errf("%v", err)
			}
			g.Heap = k
		}
		if ih, found := strings.CutPrefix(f, "init="); found {
			raw, err := hex.DecodeString(ih)
			if err != nil {
				return p.errf("bad init hex: %v", err)
			}
			g.Init = raw
		}
	}
	return nil
}

func heapByName(s string) (HeapKind, error) {
	for h := HeapKind(0); h < NumHeaps; h++ {
		if h.String() == s {
			return h, nil
		}
	}
	return HeapSystem, fmt.Errorf("unknown heap %q", s)
}

func typeByName(s string) (Type, error) {
	switch s {
	case "void":
		return Void, nil
	case "i64":
		return I64, nil
	case "f64":
		return F64, nil
	case "ptr":
		return Ptr, nil
	}
	return Void, fmt.Errorf("unknown type %q", s)
}

// parseFunc handles: func @name(%a i64, %b ptr) i64 { ... }
func (p *parser) parseFunc(header string) error {
	rest := strings.TrimPrefix(header, "func @")
	open := strings.IndexByte(rest, '(')
	closeIx := strings.LastIndexByte(rest, ')')
	if open < 0 || closeIx < open {
		return p.errf("bad function header %q", header)
	}
	name := rest[:open]
	paramText := rest[open+1 : closeIx]
	tail := strings.Fields(rest[closeIx+1:])
	if len(tail) < 2 || tail[len(tail)-1] != "{" {
		return p.errf("function header %q must end with a return type and '{'", header)
	}
	ret, err := typeByName(tail[0])
	if err != nil {
		return p.errf("%v", err)
	}
	// Functions may be referenced before definition; fetch or create.
	f := p.mod.Funcs[name]
	if f == nil {
		f = p.mod.NewFunc(name, ret)
	} else {
		f.RetType = ret
	}
	f.Blocks = nil

	values := map[string]Value{}
	if paramText != "" {
		for _, pt := range strings.Split(paramText, ",") {
			parts := strings.Fields(strings.TrimSpace(pt))
			if len(parts) != 2 || !strings.HasPrefix(parts[0], "%") {
				return p.errf("bad parameter %q", pt)
			}
			ty, err := typeByName(parts[1])
			if err != nil {
				return p.errf("%v", err)
			}
			// Re-declare parameters only on first definition.
			pname := parts[0][1:]
			var prm *Param
			for _, existing := range f.Params {
				if existing.String() == parts[0] {
					prm = existing
				}
			}
			if prm == nil {
				prm = f.NewParam(pname, ty)
			}
			values[pname] = prm
		}
	}

	blocks := map[string]*Block{}
	getBlock := func(name string) *Block {
		if b, ok := blocks[name]; ok {
			return b
		}
		b := f.NewBlock(name)
		blocks[name] = b
		return b
	}
	var cur *Block
	var pending []pendingRef
	var labelOrder []string

	for {
		line, ok := p.next()
		if !ok {
			return p.errf("unterminated function %q", name)
		}
		if line == "}" {
			break
		}
		if strings.HasSuffix(line, ":") && !strings.HasPrefix(line, "%") &&
			!strings.ContainsAny(line, " \t") {
			label := strings.TrimSuffix(line, ":")
			cur = getBlock(label)
			labelOrder = append(labelOrder, label)
			continue
		}
		if cur == nil {
			return p.errf("instruction before any block label: %q", line)
		}
		in, err := p.parseInstr(f, line, values, getBlock, &pending)
		if err != nil {
			return err
		}
		in.Blk = cur
		cur.Instrs = append(cur.Instrs, in)
	}

	// Blocks appear in label-definition order, regardless of when branch
	// targets first referenced them.
	if len(labelOrder) != len(f.Blocks) {
		for name := range blocks {
			found := false
			for _, l := range labelOrder {
				if l == name {
					found = true
				}
			}
			if !found {
				return p.errf("branch to undefined block %q in function %s", name, f.Name)
			}
		}
	}
	ordered := make([]*Block, 0, len(labelOrder))
	for _, l := range labelOrder {
		ordered = append(ordered, blocks[l])
	}
	f.Blocks = ordered

	// Resolve forward references.
	for _, ref := range pending {
		v, ok := values[ref.name]
		if !ok {
			return p.errf("undefined value %%%s in function %s", ref.name, name)
		}
		ref.instr.Args[ref.argIx] = v
	}
	// Infer types for values whose type is not syntactically evident
	// (phis and selects inherit from their operands).
	for changed := true; changed; {
		changed = false
		f.Instrs(func(in *Instr) {
			if (in.Op == OpPhi || in.Op == OpSelect) && in.Typ == I64 {
				start := 0
				if in.Op == OpSelect {
					start = 1
				}
				for _, a := range in.Args[start:] {
					if a != nil && a.Type() != I64 && a.Type() != Void {
						in.Typ = a.Type()
						changed = true
						break
					}
				}
			}
		})
	}
	f.Recompute()
	return nil
}

// opByName resolves an opcode mnemonic, with size/float/redux suffixes for
// memory operations ("load.8f", "store.4", "redux_write.8.add.i64").
func opByName(tok string) (op Op, size int64, float bool, redux ReduxKind, err error) {
	base := tok
	if dot := strings.IndexByte(tok, '.'); dot >= 0 {
		base = tok[:dot]
		suffix := tok[dot+1:]
		if base == "redux_write" {
			parts := strings.SplitN(suffix, ".", 2)
			size, err = strconv.ParseInt(parts[0], 10, 64)
			if err != nil {
				return OpInvalid, 0, false, ReduxNone, fmt.Errorf("bad redux size in %q", tok)
			}
			if len(parts) == 2 {
				redux, err = reduxByName(parts[1])
				if err != nil {
					return OpInvalid, 0, false, ReduxNone, err
				}
			}
		} else {
			if strings.HasSuffix(suffix, "f") {
				float = true
				suffix = strings.TrimSuffix(suffix, "f")
			}
			size, err = strconv.ParseInt(suffix, 10, 64)
			if err != nil {
				return OpInvalid, 0, false, ReduxNone, fmt.Errorf("bad size suffix in %q", tok)
			}
		}
	}
	for o := Op(1); o < opCount; o++ {
		if o.String() == base {
			return o, size, float, redux, nil
		}
	}
	return OpInvalid, 0, false, ReduxNone, fmt.Errorf("unknown opcode %q", tok)
}

func reduxByName(s string) (ReduxKind, error) {
	for k := ReduxNone; k <= ReduxMaxF64; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return ReduxNone, fmt.Errorf("unknown reduction op %q", s)
}

// parseInstr parses one instruction line.
func (p *parser) parseInstr(f *Function, line string, values map[string]Value,
	getBlock func(string) *Block, pending *[]pendingRef) (*Instr, error) {

	resultName := ""
	if strings.HasPrefix(line, "%") {
		eq := strings.Index(line, " = ")
		if eq < 0 {
			return nil, p.errf("expected '=' in %q", line)
		}
		resultName = line[1:eq]
		line = line[eq+3:]
	}

	// Opcode token.
	sp := strings.IndexAny(line, " \t")
	opTok := line
	rest := ""
	if sp >= 0 {
		opTok = line[:sp]
		rest = strings.TrimSpace(line[sp+1:])
	}
	op, size, float, redux, err := opByName(opTok)
	if err != nil {
		return nil, p.errf("%v", err)
	}

	in := f.newInstr(op, Void)
	in.Size = size
	in.Float = float
	in.Redux = redux
	in.Name = resultName

	// Print format string.
	if op == OpPrint {
		if !strings.HasPrefix(rest, `"`) {
			return nil, p.errf("print needs a quoted format: %q", line)
		}
		str, remainder, err := cutQuoted(rest)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		in.Str = str
		rest = strings.TrimSpace(remainder)
	}

	// Tokenize the remaining operands by commas (top-level; no nesting in
	// this grammar).
	var toks []string
	for _, t := range strings.Split(rest, ",") {
		t = strings.TrimSpace(t)
		if t != "" {
			toks = append(toks, t)
		}
	}

	resultType := I64
	addArg := func(tok string) error {
		switch {
		case strings.HasPrefix(tok, "%"):
			name := tok[1:]
			if v, ok := values[name]; ok {
				in.Args = append(in.Args, v)
			} else {
				in.Args = append(in.Args, nil)
				*pending = append(*pending, pendingRef{in, len(in.Args) - 1, name})
			}
			return nil
		default:
			return fmt.Errorf("unexpected operand %q", tok)
		}
	}

	i := 0
	takeFirst := func() (string, bool) {
		if i < len(toks) {
			t := toks[i]
			i++
			return t, true
		}
		return "", false
	}

	switch op {
	case OpConst:
		tok, _ := takeFirst()
		parts := strings.Fields(tok)
		if len(parts) == 0 {
			return nil, p.errf("const needs a value")
		}
		v, err := strconv.ParseInt(parts[0], 10, 64)
		if err != nil {
			uv, uerr := strconv.ParseUint(parts[0], 10, 64)
			if uerr != nil {
				return nil, p.errf("bad const %q", parts[0])
			}
			v = int64(uv)
		}
		in.Const = uint64(v)
		if len(parts) == 2 && parts[1] == "ptr" {
			resultType = Ptr
		}
	case OpFConst:
		tok, _ := takeFirst()
		fv, err := strconv.ParseFloat(firstField(tok), 64)
		if err != nil {
			return nil, p.errf("bad fconst %q", tok)
		}
		in.Const = math.Float64bits(fv)
		resultType = F64
	case OpAlloca:
		tok, _ := takeFirst()
		sz, err := strconv.ParseInt(firstField(tok), 10, 64)
		if err != nil {
			return nil, p.errf("bad alloca size %q", tok)
		}
		in.Size = sz
		resultType = Ptr
	case OpGlobal:
		tok, _ := takeFirst()
		gname := strings.TrimPrefix(firstField(tok), "@")
		g := p.mod.Globals[gname]
		if g == nil {
			return nil, p.errf("unknown global @%s", gname)
		}
		in.GlobalRef = g
		resultType = Ptr
	default:
		// Leading non-value annotations: @callee, !builtin, [heap].
		for i < len(toks) {
			head := toks[i]
			fields := strings.Fields(head)
			consumedAnnotations := 0
			for len(fields) > 0 {
				switch {
				case strings.HasPrefix(fields[0], "@") && op == OpCall:
					callee := p.mod.Funcs[fields[0][1:]]
					if callee == nil {
						// Forward function reference: create a stub that
						// a later "func" line completes.
						callee = p.mod.NewFunc(fields[0][1:], Void)
					}
					in.Callee = callee
					fields = fields[1:]
					consumedAnnotations++
				case strings.HasPrefix(fields[0], "!") && op == OpBuiltin:
					in.Builtin = fields[0][1:]
					fields = fields[1:]
					consumedAnnotations++
				case strings.HasPrefix(fields[0], "["):
					h := strings.Trim(fields[0], "[]")
					k, err := heapByName(h)
					if err != nil {
						return nil, p.errf("%v", err)
					}
					in.Heap = k
					fields = fields[1:]
					consumedAnnotations++
				default:
					goto annotationsDone
				}
			}
		annotationsDone:
			if consumedAnnotations > 0 {
				if len(fields) == 0 {
					i++
					continue
				}
				toks[i] = strings.Join(fields, " ")
			}
			break
		}
		// Remaining tokens: operands, labels, phi incoming.
		for {
			tok, ok := takeFirst()
			if !ok {
				break
			}
			fields := strings.Fields(tok)
			switch {
			case fields[0] == "label":
				if len(fields) != 2 {
					return nil, p.errf("bad label operand %q", tok)
				}
				in.Targets = append(in.Targets, getBlock(fields[1]))
			case strings.HasPrefix(fields[0], "%"):
				if err := addArg(fields[0]); err != nil {
					return nil, p.errf("%v", err)
				}
				// Phi incoming block: "%v [pred]".
				if len(fields) == 2 && strings.HasPrefix(fields[1], "[") {
					in.Preds = append(in.Preds, getBlock(strings.Trim(fields[1], "[]")))
				} else if len(fields) != 1 {
					return nil, p.errf("unexpected trailing tokens in %q", tok)
				}
			default:
				return nil, p.errf("unexpected operand %q", tok)
			}
		}
	}

	// Result typing by opcode convention.
	switch op {
	case OpMalloc, OpHAlloc, OpIntToPtr:
		resultType = Ptr
	case OpFAdd, OpFSub, OpFMul, OpFDiv, OpSIToFP:
		resultType = F64
	case OpLoad:
		if in.Float {
			resultType = F64
		}
	case OpBuiltin:
		resultType = F64
	}
	if resultName != "" {
		in.Typ = resultType
		values[resultName] = in
	} else {
		in.Typ = Void
	}
	return in, nil
}

// firstField returns the first whitespace-separated field of tok, "" when
// it has none.
func firstField(tok string) string {
	if f := strings.Fields(tok); len(f) > 0 {
		return f[0]
	}
	return ""
}

// cutQuoted splits a Go-quoted string prefix from the rest of the line.
func cutQuoted(s string) (string, string, error) {
	if !strings.HasPrefix(s, `"`) {
		return "", "", fmt.Errorf("expected quoted string")
	}
	for i := 1; i < len(s); i++ {
		if s[i] == '\\' {
			i++
			continue
		}
		if s[i] == '"' {
			unq, err := strconv.Unquote(s[:i+1])
			if err != nil {
				return "", "", fmt.Errorf("bad quoted string: %v", err)
			}
			return unq, s[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated quoted string")
}
