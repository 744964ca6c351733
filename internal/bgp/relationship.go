package bgp

// Relationship classifies a neighbor AS following the Gao-Rexford
// model: customers pay for transit, settlement-free peers exchange
// their customers' routes, and providers sell transit.
type Relationship uint8

const (
	// RelCustomer marks a customer AS.
	RelCustomer Relationship = iota
	// RelPeer marks a settlement-free peer.
	RelPeer
	// RelProvider marks a transit provider.
	RelProvider
)

// String implements fmt.Stringer.
func (r Relationship) String() string {
	switch r {
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	case RelProvider:
		return "provider"
	}
	return "unknown"
}
