// Package bgp implements the subset of the Border Gateway Protocol
// (RFC 4271) that TIPSY's substrate needs: the message wire format
// (OPEN, UPDATE, KEEPALIVE, NOTIFICATION), path attributes, prefix
// encoding (NLRI), and the Gao-Rexford relationship classes the AS
// graph labels its edges with. The codec carries the UPDATEs of the
// BMP feed; route selection is netsim's resolver, not this package.
//
// The package is self-contained and uses four-octet AS numbers
// throughout (RFC 6793 behaviour, without the AS_TRANS transition
// machinery, since both ends of every simulated session are 4-octet
// capable).
package bgp

import (
	"errors"
	"fmt"
)

// ASN is a four-octet autonomous system number.
type ASN uint32

// String renders the ASN in the canonical asplain form.
func (a ASN) String() string { return fmt.Sprintf("AS%d", uint32(a)) }

// Prefix is an IPv4 prefix in CIDR form. Addr holds the network
// address in host byte order with all bits below Len zeroed.
type Prefix struct {
	Addr uint32
	Len  uint8
}

var (
	errPrefixLen   = errors.New("bgp: prefix length exceeds 32")
	errPrefixShort = errors.New("bgp: truncated prefix encoding")
)

// Mask returns the network mask implied by the prefix length.
func Mask(length uint8) uint32 {
	if length == 0 {
		return 0
	}
	return ^uint32(0) << (32 - length)
}

// MakePrefix builds a Prefix from an address and length, zeroing the
// host bits so that two spellings of the same network compare equal.
func MakePrefix(addr uint32, length uint8) Prefix {
	return Prefix{Addr: addr & Mask(length), Len: length}
}

// V4 packs four dotted-quad octets into a host-order IPv4 address.
func V4(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

// Contains reports whether ip falls inside the prefix.
func (p Prefix) Contains(ip uint32) bool {
	return ip&Mask(p.Len) == p.Addr
}

// ContainsPrefix reports whether q is equal to or more specific than p.
func (p Prefix) ContainsPrefix(q Prefix) bool {
	return q.Len >= p.Len && p.Contains(q.Addr)
}

// Slash24 returns the enclosing /24 network address of ip. TIPSY uses
// the /24 of the source address as its prefix feature (§3.2 of the
// paper): /24 is the widely accepted limit on routable prefix length.
func Slash24(ip uint32) uint32 { return ip &^ 0xff }

// String renders the prefix in CIDR notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%d.%d.%d.%d/%d",
		byte(p.Addr>>24), byte(p.Addr>>16), byte(p.Addr>>8), byte(p.Addr), p.Len)
}

// FormatIP renders a host-order IPv4 address in dotted-quad form.
func FormatIP(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// appendPrefix appends the RFC 4271 §4.3 NLRI encoding of p:
// a one-octet length in bits followed by the minimum number of octets
// needed to hold that many bits.
func appendPrefix(dst []byte, p Prefix) []byte {
	dst = append(dst, p.Len)
	n := (int(p.Len) + 7) / 8
	for i := 0; i < n; i++ {
		dst = append(dst, byte(p.Addr>>(24-8*i)))
	}
	return dst
}

// decodePrefix decodes one NLRI-encoded prefix from buf, returning the
// prefix and the number of bytes consumed.
func decodePrefix(buf []byte) (Prefix, int, error) {
	if len(buf) < 1 {
		return Prefix{}, 0, errPrefixShort
	}
	length := buf[0]
	if length > 32 {
		return Prefix{}, 0, errPrefixLen
	}
	n := (int(length) + 7) / 8
	if len(buf) < 1+n {
		return Prefix{}, 0, errPrefixShort
	}
	var addr uint32
	for i := 0; i < n; i++ {
		addr |= uint32(buf[1+i]) << (24 - 8*i)
	}
	return MakePrefix(addr, length), 1 + n, nil
}

// prefixWireLen returns the encoded size of p in bytes.
func prefixWireLen(p Prefix) int { return 1 + (int(p.Len)+7)/8 }
