package snapshot

import (
	"crypto/sha256"
	"errors"
	"testing"
)

type payload struct {
	Name  string
	Vals  []uint64
	Inner struct{ A, B int64 }
}

func testPayload() payload {
	p := payload{Name: "walks", Vals: []uint64{1, 2, 3, 1 << 60}}
	p.Inner.A, p.Inner.B = -7, 9
	return p
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := testPayload()
	data, err := Encode("test-kind", in)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Decode(data, "test-kind", &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || len(out.Vals) != len(in.Vals) || out.Inner != in.Inner {
		t.Fatalf("round trip mangled payload: %+v", out)
	}
	for i := range in.Vals {
		if out.Vals[i] != in.Vals[i] {
			t.Fatalf("vals[%d] = %d, want %d", i, out.Vals[i], in.Vals[i])
		}
	}
	// Any kind is accepted when the caller doesn't care.
	if err := Decode(data, "", &payload{}); err != nil {
		t.Fatalf("wildcard kind rejected: %v", err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	data, err := Encode("test-kind", testPayload())
	if err != nil {
		t.Fatal(err)
	}

	// Every single-bit flip anywhere in the container must be caught by the
	// checksum (or, for flips inside the checksum itself, by the mismatch).
	for _, off := range []int{0, 5, 9, 15, len(data) / 2, len(data) - 40, len(data) - 1} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		if err := Decode(mut, "test-kind", &payload{}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("bit flip at %d: err %v, want ErrCorrupt", off, err)
		}
	}

	// Truncation at any boundary is corruption, never a panic.
	for _, n := range []int{0, 4, len(data) / 3, len(data) - 33, len(data) - 1} {
		if err := Decode(data[:n], "test-kind", &payload{}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncated to %d bytes: err %v, want ErrCorrupt", n, err)
		}
	}
}

func TestDecodeRejectsWrongKind(t *testing.T) {
	data, err := Encode("kind-a", testPayload())
	if err != nil {
		t.Fatal(err)
	}
	if err := Decode(data, "kind-b", &payload{}); !errors.Is(err, ErrKind) {
		t.Fatalf("wrong kind: err %v, want ErrKind", err)
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	data, err := Encode("test-kind", testPayload())
	if err != nil {
		t.Fatal(err)
	}
	// Bump the version field and re-seal the checksum so only the version
	// check can object.
	data[8+3]++
	sum := sha256.Sum256(data[:len(data)-sha256.Size])
	copy(data[len(data)-sha256.Size:], sum[:])
	if err := Decode(data, "test-kind", &payload{}); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: err %v, want ErrVersion", err)
	}
}

func TestSeal(t *testing.T) {
	data, err := Encode("test-kind", testPayload())
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Seal(data)
	if err != nil {
		t.Fatal(err)
	}
	want := sha256.Sum256(data[:len(data)-sha256.Size])
	if sum != want {
		t.Fatalf("Seal = %x, want trailing checksum %x", sum, want)
	}
	// A corrupt container has no seal.
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0xFF
	if _, err := Seal(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Seal of corrupt container: %v, want ErrCorrupt", err)
	}
	if _, err := Seal(bad[:8]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Seal of truncated container: %v, want ErrCorrupt", err)
	}
}
