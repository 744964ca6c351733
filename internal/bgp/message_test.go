package bgp

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestOpenRoundTrip(t *testing.T) {
	o := &Open{Version: 4, AS: 65001, HoldTime: 90, BGPID: V4(10, 0, 0, 1), OptParam: []byte{1, 2, 3}}
	msg := o.Marshal()
	got, err := Unmarshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	back, ok := got.(*Open)
	if !ok {
		t.Fatalf("decoded %T, want *Open", got)
	}
	if !reflect.DeepEqual(o, back) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, o)
	}
}

func TestOpenASTrans(t *testing.T) {
	o := &Open{Version: 4, AS: 4200000000, HoldTime: 180, BGPID: 1}
	got, err := Unmarshal(o.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back := got.(*Open); back.AS != 23456 {
		t.Errorf("4-octet ASN should encode as AS_TRANS in the 2-octet field, got %d", back.AS)
	}
}

func TestKeepaliveRoundTrip(t *testing.T) {
	msg := Keepalive{}.Marshal()
	if len(msg) != HeaderLen {
		t.Fatalf("KEEPALIVE is %d bytes, want %d", len(msg), HeaderLen)
	}
	got, err := Unmarshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.(Keepalive); !ok {
		t.Fatalf("decoded %T, want Keepalive", got)
	}
}

func TestNotificationRoundTrip(t *testing.T) {
	n := &Notification{Code: 6, Subcode: 2, Data: []byte("admin shutdown")}
	got, err := Unmarshal(n.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, n) {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func sampleUpdate() *Update {
	return &Update{
		Withdrawn: []Prefix{MakePrefix(V4(100, 64, 0, 0), 10)},
		Attrs: PathAttrs{
			Origin:       OriginIGP,
			ASPath:       []ASN{65001, 4200000123, 174},
			NextHop:      V4(192, 0, 2, 1),
			MED:          20,
			HasMED:       true,
			LocalPref:    300,
			HasLocalPref: true,
			Communities:  []uint32{0xfde80001, 0x00010002},
		},
		NLRI: []Prefix{
			MakePrefix(V4(198, 51, 100, 0), 24),
			MakePrefix(V4(203, 0, 0, 0), 8),
		},
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	u := sampleUpdate()
	msg := u.Marshal()
	got, err := Unmarshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	back, ok := got.(*Update)
	if !ok {
		t.Fatalf("decoded %T, want *Update", got)
	}
	if !reflect.DeepEqual(u, back) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, u)
	}
}

func TestWithdrawOnlyUpdate(t *testing.T) {
	u := &Update{Withdrawn: []Prefix{MakePrefix(V4(10, 0, 0, 0), 10), MakePrefix(V4(10, 64, 0, 0), 10)}}
	got, err := Unmarshal(u.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	back := got.(*Update)
	if len(back.NLRI) != 0 || len(back.Withdrawn) != 2 {
		t.Errorf("want pure withdrawal, got %+v", back)
	}
	// A withdraw-only UPDATE carries no path attributes at all.
	if back.Attrs.ASPath != nil {
		t.Error("withdraw-only UPDATE should have no attributes")
	}
}

func TestUnmarshalRejectsBadMarker(t *testing.T) {
	msg := Keepalive{}.Marshal()
	msg[3] = 0
	if _, err := Unmarshal(msg); err != ErrBadMarker {
		t.Errorf("err = %v, want ErrBadMarker", err)
	}
}

func TestUnmarshalRejectsBadLength(t *testing.T) {
	msg := Keepalive{}.Marshal()
	msg[16], msg[17] = 0, 5 // claims 5 bytes, below the header minimum
	if _, err := Unmarshal(msg); err != ErrBadLength {
		t.Errorf("err = %v, want ErrBadLength", err)
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	msg := sampleUpdate().Marshal()
	for cut := 1; cut < len(msg); cut += 7 {
		if _, err := Unmarshal(msg[:cut]); err == nil {
			t.Errorf("truncation at %d bytes decoded without error", cut)
		}
	}
}

func TestUpdateRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func() bool {
		u := &Update{}
		for i, n := 0, rng.Intn(4); i < n; i++ {
			u.Withdrawn = append(u.Withdrawn, MakePrefix(rng.Uint32(), uint8(rng.Intn(33))))
		}
		for i, n := 0, rng.Intn(5); i < n; i++ {
			u.NLRI = append(u.NLRI, MakePrefix(rng.Uint32(), uint8(rng.Intn(33))))
		}
		if len(u.NLRI) > 0 {
			u.Attrs = PathAttrs{
				Origin:  uint8(rng.Intn(3)),
				NextHop: rng.Uint32(),
			}
			for i, n := 0, 1+rng.Intn(6); i < n; i++ {
				u.Attrs.ASPath = append(u.Attrs.ASPath, ASN(rng.Uint32()))
			}
		}
		got, err := Unmarshal(u.Marshal())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, u)
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWireLen(t *testing.T) {
	msg := sampleUpdate().Marshal()
	if got := WireLen(msg); got != len(msg) {
		t.Errorf("WireLen = %d, want %d", got, len(msg))
	}
	if got := WireLen(msg[:10]); got != 0 {
		t.Errorf("WireLen of short buffer = %d, want 0", got)
	}
}

func TestExtendedLengthAttribute(t *testing.T) {
	// An AS path long enough to force the extended-length attribute flag.
	u := &Update{
		Attrs: PathAttrs{Origin: OriginIGP, NextHop: 1},
		NLRI:  []Prefix{MakePrefix(V4(10, 0, 0, 0), 8)},
	}
	for i := 0; i < 100; i++ {
		u.Attrs.ASPath = append(u.Attrs.ASPath, ASN(i+1))
	}
	got, err := Unmarshal(u.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, u) {
		t.Error("extended-length attribute round trip mismatch")
	}
}
