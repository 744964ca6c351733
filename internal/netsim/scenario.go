package netsim

import (
	"tipsy/internal/traffic"
	"tipsy/internal/wan"
)

// InflateToUtilization scales the base volume of every flow that
// ingresses via link at hour from so the link's projected peak
// utilization over [from, to) reaches target — pegging the incident
// to the diurnal peak so mitigation headroom is judged against the
// worst hour. It returns the applied scale factor (1 when the link
// carries nothing). This is the scenario knob behind the §2 incident
// replay and the congestion-mitigation example: enterprise workloads
// ramp up and overwhelm one peering link.
func (s *Sim) InflateToUtilization(link wan.LinkID, target float64, from, to wan.Hour) float64 {
	l, ok := s.Link(link)
	if !ok {
		return 1
	}
	// The flows via link with their shares there, in flow-ID order:
	// the scale is then a function of the seed.
	type via struct {
		f    *traffic.FlowSpec
		frac float64
	}
	var vias []via
	for i := range s.w.Flows {
		f := &s.w.Flows[i]
		for _, sh := range s.Truth(f, from, nil).Shares {
			if sh.Link == link {
				vias = append(vias, via{f, sh.Frac})
			}
		}
	}
	var peak float64
	for h := from; h < to; h++ {
		var hourBytes float64
		for _, v := range vias {
			bytes, _ := traffic.VolumeAt(v.f, s.metros, h)
			hourBytes += bytes * v.frac
		}
		if hourBytes > peak {
			peak = hourBytes
		}
	}
	if peak <= 0 {
		return 1
	}
	targetBytes := target * l.Capacity * 3600 / 8
	scale := targetBytes / peak
	if scale <= 1 {
		return 1
	}
	for _, v := range vias {
		v.f.BaseBps *= scale
	}
	return scale
}
