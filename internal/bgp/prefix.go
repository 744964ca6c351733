// Package bgp holds the Border Gateway Protocol vocabulary the rest of
// TIPSY shares: four-octet AS numbers (RFC 6793), the IPv4 prefix
// type with its /24 feature helper, and the Gao-Rexford relationship
// classes the AS graph labels its edges with. It has no wire format;
// route selection is netsim's resolver, not this package.
package bgp

import "fmt"

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
