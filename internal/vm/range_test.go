package vm

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"privateer/internal/ir"
)

// A byte range that starts in a writable heap and runs into a read-only one
// faults at the boundary before it writes a byte, through every range
// operation, and leaves no write-TLB entry for the read-only heap behind.
func TestRangeIntoProtectedHeapFaults(t *testing.T) {
	ro := ir.HeapReadOnly.Base()
	start := ro - PageSize
	src := ir.HeapPrivate.Base() + PageSize
	for name, op := range map[string]func(as *AddressSpace) error{
		"WriteBytes": func(as *AddressSpace) error {
			return as.WriteBytes(start, bytes.Repeat([]byte{0xab}, 3*PageSize))
		},
		"Fill":  func(as *AddressSpace) error { return as.Fill(start, 3*PageSize, 0xab) },
		"Copy":  func(as *AddressSpace) error { return as.Copy(start, src, 3*PageSize) },
		"Write": func(as *AddressSpace) error { return as.Write(ro-4, 8, ^uint64(0)) },
	} {
		as := NewAddressSpace()
		as.SetProt(ir.HeapReadOnly, ProtRead)
		var fault *Fault
		if err := op(as); !errors.As(err, &fault) || fault.Addr != ro || !fault.Write {
			t.Errorf("%s across into the read-only heap: %v, want a store fault at %#x", name, err, ro)
			continue
		}
		if e := as.wtlb[(ro>>PageShift)&(tlbSize-1)]; e.pn == ro>>PageShift && e.pg != nil {
			t.Errorf("%s left a write-TLB entry for the read-only heap", name)
		}
		if err := as.Write(ro, 8, 1); err == nil {
			t.Errorf("%s: a later 8-byte store into the read-only heap succeeded", name)
		}
		got := make([]byte, 2*PageSize)
		if err := as.ReadBytes(start, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, make([]byte, len(got))) {
			t.Errorf("%s wrote bytes before it faulted", name)
		}
	}
}

// Reads fault the same way at a heap the range reaches but may not read.
func TestRangeIntoUnreadableHeapFaults(t *testing.T) {
	as := NewAddressSpace()
	as.SetProt(ir.HeapShortLived, ProtNone)
	sl := ir.HeapShortLived.Base()
	var fault *Fault
	if err := as.ReadBytes(sl-PageSize, make([]byte, 2*PageSize)); !errors.As(err, &fault) || fault.Addr != sl || fault.Write {
		t.Errorf("ReadBytes across into a ProtNone heap: %v, want a load fault at %#x", err, sl)
	}
	if _, err := as.Read(sl-4, 8); !errors.As(err, &fault) || fault.Addr != sl {
		t.Errorf("Read straddling into a ProtNone heap: %v, want a load fault at %#x", err, sl)
	}
	if err := as.Copy(ir.HeapPrivate.Base()+PageSize, sl-8, 16); !errors.As(err, &fault) || fault.Addr != sl {
		t.Errorf("Copy from a range reaching a ProtNone heap: %v, want a load fault at %#x", err, sl)
	}
}

// A range that would wrap past 2^64 is refused before it touches a page.
func TestRangeWrapFaults(t *testing.T) {
	as := NewAddressSpace()
	top := ^uint64(0) - 15
	for name, err := range map[string]error{
		"WriteBytes": as.WriteBytes(top, make([]byte, 32)),
		"ReadBytes":  as.ReadBytes(top, make([]byte, 32)),
		"Fill":       as.Fill(PageSize, ^uint64(0), 0),
		"Copy":       as.Copy(PageSize, 2*PageSize, ^uint64(0)-PageSize),
	} {
		var fault *Fault
		if !errors.As(err, &fault) {
			t.Errorf("%s of a wrapping range: %v, want a fault", name, err)
		}
	}
	if n := as.Stats.PagesMapped; n != 0 {
		t.Errorf("refused ranges mapped %d pages", n)
	}
}

// Fill and Copy match a host model over random ranges of a three-page
// window, overlapping copies in both directions included: Copy is memmove.
func TestFillAndCopyMatchMemmove(t *testing.T) {
	const size = 3 * PageSize
	base := ir.HeapPrivate.Base() + PageSize
	rng := rand.New(rand.NewSource(1))
	as := NewAddressSpace()
	model := make([]byte, size)
	for i := 0; i < 400; i++ {
		a, b := uint64(rng.Intn(size)), uint64(rng.Intn(size))
		n := uint64(rng.Intn(size - int(max(a, b)) + 1))
		if i%2 == 0 {
			v := byte(rng.Intn(256))
			if err := as.Fill(base+a, n, v); err != nil {
				t.Fatal(err)
			}
			for j := a; j < a+n; j++ {
				model[j] = v
			}
		} else {
			if err := as.Copy(base+a, base+b, n); err != nil {
				t.Fatal(err)
			}
			copy(model[a:a+n], model[b:b+n])
		}
		got := make([]byte, size)
		if err := as.ReadBytes(base, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, model) {
			t.Fatalf("step %d (a=%d b=%d n=%d): memory differs from the model", i, a, b, n)
		}
	}
}
