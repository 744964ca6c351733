// Package wan defines the cloud-WAN-side vocabulary shared by the
// simulator, the feature pipeline, the TIPSY models, and the
// congestion mitigation system: peering links, destination regions and
// service types, and simulated time.
package wan

import (
	"fmt"

	"tipsy/internal/bgp"
	"tipsy/internal/geo"
)

// LinkID identifies one peering link, at the granularity the paper
// uses: an individual eBGP session. IDs start at 1; 0 means "none".
type LinkID uint32

// Region is the geographic location of a destination inside the WAN.
// It reuses metro identifiers: a WAN region is a metro where the cloud
// operates datacenters.
type Region = geo.MetroID

// ServiceType is the kind of service a destination serves (§3.2:
// "destination type", e.g. web service or storage).
type ServiceType uint8

// Built-in service types. The paper reports ~200 distinct types; the
// generator synthesizes IDs above the named ones up to a configurable
// cardinality.
const (
	SvcUnknown ServiceType = iota
	SvcWeb
	SvcStorage
	SvcVideoConf
	SvcMail
	SvcVPN
	SvcAnalytics
	SvcAIML
	SvcBackup
	SvcCDN
	SvcGaming
)

// String implements fmt.Stringer for the named service types.
func (s ServiceType) String() string {
	names := [...]string{"unknown", "web", "storage", "videoconf", "mail",
		"vpn", "analytics", "aiml", "backup", "cdn", "gaming"}
	if int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("svc%d", uint8(s))
}

// Hour is simulated time: whole hours since the simulation epoch.
// TIPSY's pipeline aggregates telemetry into hour-long chunks (§4.2),
// so the hour is the natural clock tick.
type Hour int32

// Day returns the simulation day the hour falls in.
func (h Hour) Day() int { return int(h) / 24 }

// HourOfDay returns the hour within its day, 0-23.
func (h Hour) HourOfDay() int { return int(h) % 24 }

// DayOfWeek returns 0-6 with day 0 of the simulation defined as a
// Monday.
func (h Hour) DayOfWeek() int { return h.Day() % 7 }

// Link is one peering link of the WAN: an eBGP session with a peer AS
// on an edge router in some metro, with a provisioned capacity.
type Link struct {
	ID       LinkID
	Router   string      // edge router name, e.g. "fra01-er2"
	Metro    geo.MetroID // where the link lands
	PeerAS   bgp.ASN     // the neighbor AS on the session
	Capacity float64     // bits per second, ingress direction
	// Exchange marks the session as crossing a public Internet
	// exchange rather than a private interconnect (PNI).
	Exchange bool
}

// GbpsToBps converts gigabits per second to bits per second.
func GbpsToBps(g float64) float64 { return g * 1e9 }

// Utilization returns u as a fraction of link capacity given a byte
// count observed over the given number of seconds.
func (l Link) Utilization(bytes float64, seconds float64) float64 {
	if l.Capacity <= 0 || seconds <= 0 {
		return 0
	}
	return bytes * 8 / seconds / l.Capacity
}

// Directory exposes link metadata to components, such as the AL+G
// model, that need to reason about where links are and which AS they
// face, without depending on the whole simulator.
type Directory interface {
	// Link returns the link with the given ID.
	Link(id LinkID) (Link, bool)
	// LinksOfAS returns the IDs of every link facing the given peer
	// AS, in ascending ID order.
	LinksOfAS(as bgp.ASN) []LinkID
	// Links returns all link IDs in ascending order.
	//
	// Both slices are the implementation's own, shared by every
	// caller: callers must not modify them.
	Links() []LinkID
}
