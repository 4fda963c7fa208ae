package interp_test

import (
	"os"
	"testing"

	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/vm"
)

// Text forms of parity_test.go's hostile modules, as seeds for FuzzDecode.
// ir.Parse verifies what it reads, so it rejects the unterminated block; the
// fuzzer starts from it all the same.
const (
	unterminatedText = `module unterminated
func @main() i64 {
entry:
	%one = const 1
	%two = const 2
	%sum = add %one, %two
	br label tail
tail:
	%p = phi %sum [entry]
	%three = const 3
	%q = add %sum, %three
}
`
	useBeforeDefText = `module later
func @main() i64 {
entry:
	%zero = const 0
	br label head
head:
	%i = phi %zero [entry], %next [latch]
	%acc = phi %zero [entry], %use [latch]
	%use = add %acc, %k
	br label latch
latch:
	%k = const 100
	%one = const 1
	%next = add %i, %one
	%three = const 3
	%c = slt %next, %three
	condbr %c, label head, label exit
exit:
	ret %use
}
`
	missingIncomingText = `module noincoming
func @main() i64 {
entry:
	%one = const 1
	%zero = const 0
	condbr %zero, label arm, label join
arm:
	%two = const 2
	br label join
join:
	%x = phi %two [arm]
	%y = add %x, %one
	ret %y
}
`
)

// allocsText seeds FuzzDecode with a sized global, an alloca, a malloc and a
// two-operand builtin, so the fuzzer mutates allocation sizes and builtin
// operands. Neither a memset nor a memcopy is seeded: each stages its whole
// length in a host buffer, so a mutated length could exhaust the host.
const allocsText = `module allocs
global @g [32 bytes]

func @main() i64 {
entry:
	%gp = global @g
	%a = alloca 24
	%n = const 48
	%m = malloc %n
	%x = fconst 2
	%y = fconst 10
	%p = builtin !pow %x, %y
	%pi = fptosi %p
	store.8 %pi, %a
	store.8 %pi, %m
	%v = load.8 %m
	store.8 %v, %gp
	%w = load.8 %gp
	free %m
	print "pow=%d\n" %w
	ret %w
}
`

// FuzzDecode parses its input as textual IR and runs the module's entry on
// the decoded executor and on the tree-walk, each at a small step budget
// and call depth. ir.Parse admits only modules ir.Verify accepts, and on
// each the two must leave the same return value, error text, Steps and
// output; neither may panic. The decoded executor indexes frames and code
// unchecked, on the strength of decode's proof.
//
//	go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 30s ./internal/interp/
func FuzzDecode(f *testing.F) {
	histogram, err := os.ReadFile("../ir/testdata/histogram.pir")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{string(histogram), unterminatedText, useBeforeDefText, missingIncomingText, allocsText} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		mod, err := ir.Parse(text)
		if err != nil {
			t.Skip()
		}
		var got [2]outcome
		for i, treeWalk := range []bool{false, true} {
			it := interp.NewExecutor(treeWalk, mod, vm.NewAddressSpace())
			it.StepLimit, it.MaxDepth = 1<<14, 64
			ret, err := it.Run()
			got[i] = outcome{ret: ret, steps: it.Steps, out: it.Out.String()}
			if err != nil {
				got[i].err = err.Error()
			}
		}
		if got[0] != got[1] {
			t.Errorf("decoded:   %v\ntree-walk: %v", got[0], got[1])
		}
	})
}
