package ipfix

import "encoding/binary"

// FlowTemplateID is the template ID of the TIPSY flow record schema.
const FlowTemplateID = 256

// FlowTemplate describes the flow record schema the edge routers
// export: the IPFIX fields §4.1 of the paper calls out as the
// important ones — source address, source ASN, destination address,
// timestamps, and byte/packet counts scaled by the sampling rate —
// plus the ingress interface identifying the peering link.
func FlowTemplate() Template {
	return Template{
		ID: FlowTemplateID,
		Fields: []FieldSpec{
			{ID: IESourceIPv4Address, Length: 4},
			{ID: IEDestinationIPv4, Length: 4},
			{ID: IEOctetDeltaCount, Length: 8},
			{ID: IEPacketDeltaCount, Length: 8},
			{ID: IEIngressInterface, Length: 4},
			{ID: IEBgpSourceAsNumber, Length: 4},
			{ID: IEFlowStartSeconds, Length: 4},
			{ID: IEFlowEndSeconds, Length: 4},
		},
	}
}

// flowRecordLen is the fixed wire size of one flow record.
const flowRecordLen = 4 + 4 + 8 + 8 + 4 + 4 + 4 + 4

// FlowRecord is one decoded flow observation. Octets and Packets are
// already scaled up by the exporter's sampling interval, matching the
// paper's "number of bytes scaled up by the sampling rate".
type FlowRecord struct {
	SrcAddr   uint32
	DstAddr   uint32
	Octets    uint64
	Packets   uint64
	Ingress   uint32 // peering link / ifIndex the flow arrived on
	SrcAS     uint32
	StartSecs uint32
	EndSecs   uint32
}

// Marshal encodes the record per FlowTemplate.
func (r *FlowRecord) Marshal() []byte {
	out := make([]byte, 0, flowRecordLen)
	out = binary.BigEndian.AppendUint32(out, r.SrcAddr)
	out = binary.BigEndian.AppendUint32(out, r.DstAddr)
	out = binary.BigEndian.AppendUint64(out, r.Octets)
	out = binary.BigEndian.AppendUint64(out, r.Packets)
	out = binary.BigEndian.AppendUint32(out, r.Ingress)
	out = binary.BigEndian.AppendUint32(out, r.SrcAS)
	out = binary.BigEndian.AppendUint32(out, r.StartSecs)
	return binary.BigEndian.AppendUint32(out, r.EndSecs)
}
