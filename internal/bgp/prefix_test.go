package bgp

import (
	"math/rand"
	"testing"
)

func TestMask(t *testing.T) {
	cases := []struct {
		len  uint8
		want uint32
	}{
		{0, 0x00000000},
		{1, 0x80000000},
		{8, 0xff000000},
		{10, 0xffc00000},
		{24, 0xffffff00},
		{32, 0xffffffff},
	}
	for _, c := range cases {
		if got := Mask(c.len); got != c.want {
			t.Errorf("Mask(%d) = %#x, want %#x", c.len, got, c.want)
		}
	}
}

func TestMakePrefixZeroesHostBits(t *testing.T) {
	p := MakePrefix(V4(10, 1, 2, 3), 16)
	if p.Addr != V4(10, 1, 0, 0) {
		t.Errorf("host bits not cleared: %s", p)
	}
	q := MakePrefix(V4(10, 1, 255, 255), 16)
	if p != q {
		t.Errorf("two spellings of the same network differ: %v vs %v", p, q)
	}
}

func TestPrefixContains(t *testing.T) {
	p := MakePrefix(V4(192, 168, 0, 0), 16)
	if !p.Contains(V4(192, 168, 42, 7)) {
		t.Error("should contain inside address")
	}
	if p.Contains(V4(192, 169, 0, 0)) {
		t.Error("should not contain outside address")
	}
	all := MakePrefix(0, 0)
	if !all.Contains(V4(1, 2, 3, 4)) {
		t.Error("default route should contain everything")
	}
}

func TestContainsPrefix(t *testing.T) {
	p := MakePrefix(V4(10, 0, 0, 0), 8)
	sub := MakePrefix(V4(10, 5, 0, 0), 16)
	if !p.ContainsPrefix(sub) {
		t.Error("10/8 should contain 10.5/16")
	}
	if sub.ContainsPrefix(p) {
		t.Error("10.5/16 should not contain 10/8")
	}
	if !p.ContainsPrefix(p) {
		t.Error("a prefix contains itself")
	}
}

func TestSlash24(t *testing.T) {
	if got := Slash24(V4(203, 0, 113, 77)); got != V4(203, 0, 113, 0) {
		t.Errorf("Slash24 = %s", FormatIP(got))
	}
}

func TestPrefixString(t *testing.T) {
	p := MakePrefix(V4(198, 51, 100, 0), 24)
	if got := p.String(); got != "198.51.100.0/24" {
		t.Errorf("String() = %q", got)
	}
}

func TestMaskContainsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		addr := rng.Uint32()
		l := uint8(rng.Intn(33))
		p := MakePrefix(addr, l)
		if !p.Contains(addr) {
			t.Fatalf("prefix %s does not contain its own seed address %s", p, FormatIP(addr))
		}
	}
}
