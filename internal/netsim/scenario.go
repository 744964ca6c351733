package netsim

import (
	"slices"

	"tipsy/internal/traffic"
	"tipsy/internal/wan"
)

// FlowsVia returns the IDs of workload flows whose resolution at hour
// h includes the given link, with the byte share each sends there.
func (s *Sim) FlowsVia(link wan.LinkID, h wan.Hour) map[int]float64 {
	out := make(map[int]float64)
	for i := range s.w.Flows {
		f := &s.w.Flows[i]
		for _, sh := range s.ResolveFlow(f, h) {
			if sh.Link == link {
				out[f.ID] = sh.Frac
			}
		}
	}
	return out
}

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
	via := s.FlowsVia(link, from)
	// Summed in flow-ID order: the scale is then a function of the
	// seed, not of the map's iteration order.
	ids := make([]int, 0, len(via))
	for id := range via {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var peak float64
	for h := from; h < to; h++ {
		var hourBytes float64
		for _, id := range ids {
			bytes, _ := traffic.VolumeAt(&s.w.Flows[id], s.metros, h)
			hourBytes += bytes * via[id]
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
	for id := range via {
		s.w.Flows[id].BaseBps *= scale
	}
	return scale
}

// ScaleFlows multiplies the base volume of the given flows, e.g. to
// let an engineered incident subside.
func (s *Sim) ScaleFlows(ids map[int]float64, factor float64) {
	for id := range ids {
		if id >= 0 && id < len(s.w.Flows) {
			s.w.Flows[id].BaseBps *= factor
		}
	}
}
