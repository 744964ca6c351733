package netsim

import (
	"tipsy/internal/bgp"
	"tipsy/internal/bmp"
	"tipsy/internal/wan"
)

// BMPSender receives framed BMP messages from the WAN's edge routers.
// routerID identifies the sending router; in the substrate each
// peering link has a dedicated monitored session and routerID equals
// the link ID.
type BMPSender func(routerID uint32, msg []byte)

// peerHeader builds the BMP per-peer header for a link's session.
func (s *Sim) peerHeader(l wan.Link, h wan.Hour) bmp.PeerHeader {
	return bmp.PeerHeader{
		Address:   bgp.V4(198, 18, byte(l.ID>>8), byte(l.ID)),
		AS:        l.PeerAS,
		BGPID:     uint32(l.ID),
		Timestamp: uint32(h) * 3600,
	}
}

// emitSessionUp sends the Peer Up for a link's session followed by a
// Route Monitoring announcement of every anycast prefix currently
// announced there — the full RIB a real router re-advertises when a
// monitored session (re-)establishes. Bootstrap and outage recovery
// share this path so a BMP station can rebuild its per-session view
// from scratch after a mid-stream session-down.
func (s *Sim) emitSessionUp(l wan.Link, h wan.Hour, send BMPSender) {
	rid := uint32(l.ID)
	ph := s.peerHeader(l, h)
	up := &bmp.PeerUp{
		Peer:       ph,
		LocalAddr:  bgp.V4(198, 19, byte(l.ID>>8), byte(l.ID)),
		LocalPort:  179,
		RemotePort: 30000 + uint16(l.ID%10000),
		SentOpen:   &bgp.Open{Version: 4, AS: s.g.Cloud(), HoldTime: 90, BGPID: uint32(l.ID)},
		RecvOpen:   &bgp.Open{Version: 4, AS: l.PeerAS, HoldTime: 90, BGPID: ph.BGPID},
	}
	send(rid, up.Marshal())
	var nlri []bgp.Prefix
	for _, p := range s.w.Anycast {
		if !s.IsWithdrawn(l.ID, p) {
			nlri = append(nlri, p)
		}
	}
	if len(nlri) == 0 {
		return
	}
	rm := &bmp.RouteMonitoring{
		Peer: ph,
		Update: &bgp.Update{
			Attrs: bgp.PathAttrs{
				Origin:  bgp.OriginIGP,
				ASPath:  []bgp.ASN{s.g.Cloud()},
				NextHop: up.LocalAddr,
			},
			NLRI: nlri,
		},
	}
	send(rid, rm.Marshal())
}

// EmitBMPBootstrap sends, for every peering link, the Initiation and
// Peer Up messages followed by Route Monitoring announcements of every
// anycast prefix currently announced there — the state a BMP station
// would learn when the WAN's routers first connect to it.
func (s *Sim) EmitBMPBootstrap(h wan.Hour, send BMPSender) {
	for _, l := range s.links {
		send(uint32(l.ID), (&bmp.Initiation{SysName: l.Router, SysDescr: "edge router"}).Marshal())
		if s.outages.Down(l.ID, h) {
			continue
		}
		s.emitSessionUp(l, h, send)
	}
}

// EmitBMPHour sends Peer Down messages for links that went down
// entering hour h, and for links that recovered, the full session
// re-establishment: Peer Up plus the complete set of current
// announcements, so a monitoring station re-bootstraps its RIB view.
func (s *Sim) EmitBMPHour(h wan.Hour, send BMPSender) {
	if h == 0 {
		return
	}
	for _, l := range s.links {
		was, is := s.outages.Down(l.ID, h-1), s.outages.Down(l.ID, h)
		switch {
		case is && !was:
			send(uint32(l.ID), (&bmp.PeerDown{
				Peer:   s.peerHeader(l, h),
				Reason: bmp.ReasonRemoteNoNotification,
			}).Marshal())
		case was && !is:
			s.emitSessionUp(l, h, send)
		}
	}
}
