package wire

// Message is implemented by every wire message struct (pointer receivers).
// The interface replaces the package's former OpOf and Size type switches:
// the RPC fast path dispatches through two devirtualizable methods instead
// of walking a ~34-case switch twice per RPC, and messages cross the
// simulated fabric without any `any` boxing.
//
// The unexported walk method seals the interface: only types declared in
// this package can be wire messages, so the codec (and the round-trip test
// over all opcodes) is guaranteed to cover every implementation.
type Message interface {
	// Op returns the message's opcode.
	Op() Op
	// WireSize returns the exact on-wire size in bytes, header included,
	// counting declared value lengths for virtual payloads. It is
	// arithmetic, not a walk: the simulator calls it on every send.
	WireSize() int
	// walk visits the message body (everything after the header), one
	// field per statement in wire order: it encodes or decodes, as the
	// codec is set.
	walk(c *codec)
}

// Fixed parts of the list elements, for WireSize.
const (
	objectFixed  = 8 + 8 + 4 + 4 + 8 + 1 // table, keyhash, keylen, valuelen, version, tombstone
	tabletSize   = 8 + 8 + 8 + 4 + 1
	segInfoSize  = 8 + 4
	segLocSize   = 8 + 4 + 4
	willPartSize = 8 + 8
)

func objectSize(o *Object) int { return objectFixed + len(o.Key) + int(o.ValueLen) }

// List elements ----------------------------------------------------------------

func (o *Object) walk(c *codec) {
	c.u64(&o.Table)
	c.u64(&o.KeyHash)
	c.bytes(&o.Key)
	c.value(&o.ValueLen, &o.Value)
	c.u64(&o.Version)
	c.b1(&o.Tombstone)
}

func (t *Tablet) walk(c *codec) {
	c.u64(&t.Table)
	c.u64(&t.StartHash)
	c.u64(&t.EndHash)
	c.i32(&t.Master)
	c.b1(&t.Recovering)
}

func (s *SegmentInfo) walk(c *codec) {
	c.u64(&s.Segment)
	c.u32(&s.Bytes)
}

func (s *SegmentLoc) walk(c *codec) {
	c.u64(&s.Segment)
	c.i32(&s.Backup)
	c.u32(&s.Bytes)
}

func (p *WillPartition) walk(c *codec) {
	c.u64(&p.FirstHash)
	c.u64(&p.LastHash)
}

func (s *ServerAddr) walk(c *codec) {
	c.i32(&s.ID)
	c.str(&s.Addr)
}

func (it *MultiReadItem) walk(c *codec) {
	c.u64(&it.Table)
	c.bytes(&it.Key)
}

func (it *MultiReadResult) walk(c *codec) {
	c.status(&it.Status)
	c.u64(&it.Version)
	c.value(&it.ValueLen, &it.Value)
}

func (it *MultiWriteItem) walk(c *codec) {
	c.u64(&it.Table)
	c.bytes(&it.Key)
	c.value(&it.ValueLen, &it.Value)
}

func (it *MultiWriteResult) walk(c *codec) {
	c.status(&it.Status)
	c.u64(&it.Version)
}

// Client data plane --------------------------------------------------------

func (*ReadReq) Op() Op          { return OpReadReq }
func (m *ReadReq) WireSize() int { return headerSize + 8 + 4 + len(m.Key) }
func (m *ReadReq) walk(c *codec) {
	c.u64(&m.Table)
	c.bytes(&m.Key)
}

func (*ReadResp) Op() Op          { return OpReadResp }
func (m *ReadResp) WireSize() int { return headerSize + 1 + 8 + 4 + int(m.ValueLen) }
func (m *ReadResp) walk(c *codec) {
	c.status(&m.Status)
	c.u64(&m.Version)
	c.value(&m.ValueLen, &m.Value)
}

func (*WriteReq) Op() Op          { return OpWriteReq }
func (m *WriteReq) WireSize() int { return headerSize + 8 + 4 + len(m.Key) + 4 + int(m.ValueLen) }
func (m *WriteReq) walk(c *codec) {
	c.u64(&m.Table)
	c.bytes(&m.Key)
	c.value(&m.ValueLen, &m.Value)
}

func (*WriteResp) Op() Op        { return OpWriteResp }
func (*WriteResp) WireSize() int { return headerSize + 1 + 8 }
func (m *WriteResp) walk(c *codec) {
	c.status(&m.Status)
	c.u64(&m.Version)
}

func (*DeleteReq) Op() Op          { return OpDeleteReq }
func (m *DeleteReq) WireSize() int { return headerSize + 8 + 4 + len(m.Key) }
func (m *DeleteReq) walk(c *codec) {
	c.u64(&m.Table)
	c.bytes(&m.Key)
}

func (*DeleteResp) Op() Op        { return OpDeleteResp }
func (*DeleteResp) WireSize() int { return headerSize + 1 + 8 }
func (m *DeleteResp) walk(c *codec) {
	c.status(&m.Status)
	c.u64(&m.Version)
}

func (*MultiReadReq) Op() Op { return OpMultiReadReq }
func (m *MultiReadReq) WireSize() int {
	body := 4
	for i := range m.Items {
		body += 8 + 4 + len(m.Items[i].Key)
	}
	return headerSize + body
}
func (m *MultiReadReq) walk(c *codec) { list(c, &m.Items, (*MultiReadItem).walk) }

func (*MultiReadResp) Op() Op { return OpMultiReadResp }
func (m *MultiReadResp) WireSize() int {
	body := 1 + 4
	for i := range m.Items {
		body += 1 + 8 + 4 + int(m.Items[i].ValueLen)
	}
	return headerSize + body
}
func (m *MultiReadResp) walk(c *codec) {
	c.status(&m.Status)
	list(c, &m.Items, (*MultiReadResult).walk)
}

func (*MultiWriteReq) Op() Op { return OpMultiWriteReq }
func (m *MultiWriteReq) WireSize() int {
	body := 4
	for i := range m.Items {
		body += 8 + 4 + len(m.Items[i].Key) + 4 + int(m.Items[i].ValueLen)
	}
	return headerSize + body
}
func (m *MultiWriteReq) walk(c *codec) { list(c, &m.Items, (*MultiWriteItem).walk) }

func (*MultiWriteResp) Op() Op { return OpMultiWriteResp }
func (m *MultiWriteResp) WireSize() int {
	return headerSize + 1 + 4 + len(m.Items)*(1+8)
}
func (m *MultiWriteResp) walk(c *codec) {
	c.status(&m.Status)
	list(c, &m.Items, (*MultiWriteResult).walk)
}

// Coordinator control plane ------------------------------------------------

func (*CreateTableReq) Op() Op          { return OpCreateTableReq }
func (m *CreateTableReq) WireSize() int { return headerSize + 4 + len(m.Name) + 4 }
func (m *CreateTableReq) walk(c *codec) {
	c.str(&m.Name)
	c.u32(&m.ServerSpan)
}

func (*CreateTableResp) Op() Op        { return OpCreateTableResp }
func (*CreateTableResp) WireSize() int { return headerSize + 1 + 8 }
func (m *CreateTableResp) walk(c *codec) {
	c.status(&m.Status)
	c.u64(&m.Table)
}

func (*DropTableReq) Op() Op          { return OpDropTableReq }
func (m *DropTableReq) WireSize() int { return headerSize + 4 + len(m.Name) }
func (m *DropTableReq) walk(c *codec) { c.str(&m.Name) }

func (*DropTableResp) Op() Op          { return OpDropTableResp }
func (*DropTableResp) WireSize() int   { return headerSize + 1 }
func (m *DropTableResp) walk(c *codec) { c.status(&m.Status) }

func (*GetTabletMapReq) Op() Op        { return OpGetTabletMapReq }
func (*GetTabletMapReq) WireSize() int { return headerSize }
func (*GetTabletMapReq) walk(*codec)   {}

func (*GetTabletMapResp) Op() Op { return OpGetTabletMapResp }
func (m *GetTabletMapResp) WireSize() int {
	return headerSize + 1 + 4 + len(m.Tablets)*tabletSize
}
func (m *GetTabletMapResp) walk(c *codec) {
	c.status(&m.Status)
	list(c, &m.Tablets, (*Tablet).walk)
}

func (*EnlistReq) Op() Op        { return OpEnlistReq }
func (*EnlistReq) WireSize() int { return headerSize + 4 + 8 + 1 }
func (m *EnlistReq) walk(c *codec) {
	c.i32(&m.Node)
	c.i64(&m.MemoryBytes)
	c.b1(&m.HasBackup)
}

func (*EnlistResp) Op() Op        { return OpEnlistResp }
func (*EnlistResp) WireSize() int { return headerSize + 1 + 4 }
func (m *EnlistResp) walk(c *codec) {
	c.status(&m.Status)
	c.i32(&m.ServerID)
}

func (*PingReq) Op() Op          { return OpPingReq }
func (*PingReq) WireSize() int   { return headerSize + 8 }
func (m *PingReq) walk(c *codec) { c.u64(&m.Seq) }

func (*PingResp) Op() Op          { return OpPingResp }
func (*PingResp) WireSize() int   { return headerSize + 8 }
func (m *PingResp) walk(c *codec) { c.u64(&m.Seq) }

func (*SetWillReq) Op() Op          { return OpSetWillReq }
func (m *SetWillReq) WireSize() int { return headerSize + 4 + 4 + len(m.Partitions)*willPartSize }
func (m *SetWillReq) walk(c *codec) {
	c.i32(&m.Master)
	list(c, &m.Partitions, (*WillPartition).walk)
}

func (*SetWillResp) Op() Op          { return OpSetWillResp }
func (*SetWillResp) WireSize() int   { return headerSize + 1 }
func (m *SetWillResp) walk(c *codec) { c.status(&m.Status) }

// Replication plane ---------------------------------------------------------

func (*OpenSegmentReq) Op() Op        { return OpOpenSegmentReq }
func (*OpenSegmentReq) WireSize() int { return headerSize + 4 + 8 }
func (m *OpenSegmentReq) walk(c *codec) {
	c.i32(&m.Master)
	c.u64(&m.Segment)
}

func (*OpenSegmentResp) Op() Op          { return OpOpenSegmentResp }
func (*OpenSegmentResp) WireSize() int   { return headerSize + 1 }
func (m *OpenSegmentResp) walk(c *codec) { c.status(&m.Status) }

func (*ReplicateReq) Op() Op { return OpReplicateReq }
func (m *ReplicateReq) WireSize() int {
	body := 4 + 8 + 4
	for i := range m.Objects {
		body += objectSize(&m.Objects[i])
	}
	return headerSize + body
}
func (m *ReplicateReq) walk(c *codec) {
	c.i32(&m.Master)
	c.u64(&m.Segment)
	list(c, &m.Objects, (*Object).walk)
}

func (*ReplicateResp) Op() Op          { return OpReplicateResp }
func (*ReplicateResp) WireSize() int   { return headerSize + 1 }
func (m *ReplicateResp) walk(c *codec) { c.status(&m.Status) }

func (*CloseSegmentReq) Op() Op        { return OpCloseSegmentReq }
func (*CloseSegmentReq) WireSize() int { return headerSize + 4 + 8 + 4 }
func (m *CloseSegmentReq) walk(c *codec) {
	c.i32(&m.Master)
	c.u64(&m.Segment)
	c.u32(&m.SegmentBytes)
}

func (*CloseSegmentResp) Op() Op          { return OpCloseSegmentResp }
func (*CloseSegmentResp) WireSize() int   { return headerSize + 1 }
func (m *CloseSegmentResp) walk(c *codec) { c.status(&m.Status) }

func (*FreeReplicasReq) Op() Op          { return OpFreeReplicasReq }
func (*FreeReplicasReq) WireSize() int   { return headerSize + 4 }
func (m *FreeReplicasReq) walk(c *codec) { c.i32(&m.Master) }

func (*FreeReplicasResp) Op() Op          { return OpFreeReplicasResp }
func (*FreeReplicasResp) WireSize() int   { return headerSize + 1 }
func (m *FreeReplicasResp) walk(c *codec) { c.status(&m.Status) }

func (*RDMAWriteReq) Op() Op { return OpRDMAWriteReq }
func (m *RDMAWriteReq) WireSize() int {
	body := 4 + 8 + 4
	for i := range m.Objects {
		body += objectSize(&m.Objects[i])
	}
	return headerSize + body
}
func (m *RDMAWriteReq) walk(c *codec) {
	c.i32(&m.Master)
	c.u64(&m.Segment)
	list(c, &m.Objects, (*Object).walk)
}

func (*RDMAWriteResp) Op() Op          { return OpRDMAWriteResp }
func (*RDMAWriteResp) WireSize() int   { return headerSize + 1 }
func (m *RDMAWriteResp) walk(c *codec) { c.status(&m.Status) }

// Recovery plane -------------------------------------------------------------

func (*SegmentInventoryReq) Op() Op          { return OpSegmentInventoryReq }
func (*SegmentInventoryReq) WireSize() int   { return headerSize + 4 }
func (m *SegmentInventoryReq) walk(c *codec) { c.i32(&m.Master) }

func (*SegmentInventoryResp) Op() Op { return OpSegmentInventoryResp }
func (m *SegmentInventoryResp) WireSize() int {
	return headerSize + 1 + 4 + len(m.Segments)*segInfoSize
}
func (m *SegmentInventoryResp) walk(c *codec) {
	c.status(&m.Status)
	list(c, &m.Segments, (*SegmentInfo).walk)
}

func (*GetRecoveryDataReq) Op() Op        { return OpGetRecoveryDataReq }
func (*GetRecoveryDataReq) WireSize() int { return headerSize + 4 + 8 + 8 + 8 }
func (m *GetRecoveryDataReq) walk(c *codec) {
	c.i32(&m.Master)
	c.u64(&m.Segment)
	c.u64(&m.FirstHash)
	c.u64(&m.LastHash)
}

func (*GetRecoveryDataResp) Op() Op { return OpGetRecoveryDataResp }
func (m *GetRecoveryDataResp) WireSize() int {
	body := 1 + 4 + 4
	for i := range m.Objects {
		body += objectSize(&m.Objects[i])
	}
	return headerSize + body
}
func (m *GetRecoveryDataResp) walk(c *codec) {
	c.status(&m.Status)
	c.u32(&m.SegmentBytes)
	list(c, &m.Objects, (*Object).walk)
}

func (*RecoverReq) Op() Op { return OpRecoverReq }
func (m *RecoverReq) WireSize() int {
	return headerSize + 4 + 8 + 8 +
		4 + len(m.Tablets)*tabletSize +
		4 + len(m.Segments)*segLocSize
}
func (m *RecoverReq) walk(c *codec) {
	c.i32(&m.Crashed)
	c.u64(&m.FirstHash)
	c.u64(&m.LastHash)
	list(c, &m.Tablets, (*Tablet).walk)
	list(c, &m.Segments, (*SegmentLoc).walk)
}

func (*RecoverResp) Op() Op          { return OpRecoverResp }
func (*RecoverResp) WireSize() int   { return headerSize + 1 }
func (m *RecoverResp) walk(c *codec) { c.status(&m.Status) }

func (*RecoveryDoneReq) Op() Op        { return OpRecoveryDoneReq }
func (*RecoveryDoneReq) WireSize() int { return headerSize + 4 + 8 + 1 }
func (m *RecoveryDoneReq) walk(c *codec) {
	c.i32(&m.Crashed)
	c.u64(&m.FirstHash)
	c.b1(&m.Ok)
}

func (*RecoveryDoneResp) Op() Op          { return OpRecoveryDoneResp }
func (*RecoveryDoneResp) WireSize() int   { return headerSize + 1 }
func (m *RecoveryDoneResp) walk(c *codec) { c.status(&m.Status) }

// Migration plane ------------------------------------------------------------

func (*MigrateTabletReq) Op() Op        { return OpMigrateTabletReq }
func (*MigrateTabletReq) WireSize() int { return headerSize + 8 + 8 + 8 + 4 }
func (m *MigrateTabletReq) walk(c *codec) {
	c.u64(&m.Table)
	c.u64(&m.FirstHash)
	c.u64(&m.LastHash)
	c.i32(&m.Dst)
}

func (*MigrateTabletResp) Op() Op        { return OpMigrateTabletResp }
func (*MigrateTabletResp) WireSize() int { return headerSize + 1 + 4 }
func (m *MigrateTabletResp) walk(c *codec) {
	c.status(&m.Status)
	c.u32(&m.Moved)
}

func (*TakeTabletReq) Op() Op { return OpTakeTabletReq }
func (m *TakeTabletReq) WireSize() int {
	body := 8 + 8 + 8 + 4
	for i := range m.Objects {
		body += objectSize(&m.Objects[i])
	}
	return headerSize + body
}
func (m *TakeTabletReq) walk(c *codec) {
	c.u64(&m.Table)
	c.u64(&m.FirstHash)
	c.u64(&m.LastHash)
	list(c, &m.Objects, (*Object).walk)
}

func (*TakeTabletResp) Op() Op          { return OpTakeTabletResp }
func (*TakeTabletResp) WireSize() int   { return headerSize + 1 }
func (m *TakeTabletResp) walk(c *codec) { c.status(&m.Status) }

// Real-transport control plane ----------------------------------------------

func (*EnlistAddrReq) Op() Op          { return OpEnlistAddrReq }
func (m *EnlistAddrReq) WireSize() int { return headerSize + 4 + len(m.Addr) + 8 }
func (m *EnlistAddrReq) walk(c *codec) {
	c.str(&m.Addr)
	c.i64(&m.MemoryBytes)
}

func (*EnlistAddrResp) Op() Op        { return OpEnlistAddrResp }
func (*EnlistAddrResp) WireSize() int { return headerSize + 1 + 4 }
func (m *EnlistAddrResp) walk(c *codec) {
	c.status(&m.Status)
	c.i32(&m.ServerID)
}

func (*ServerListReq) Op() Op        { return OpServerListReq }
func (*ServerListReq) WireSize() int { return headerSize }
func (*ServerListReq) walk(*codec)   {}

func (*ServerListResp) Op() Op { return OpServerListResp }
func (m *ServerListResp) WireSize() int {
	body := 1 + 4
	for i := range m.Servers {
		body += 4 + 4 + len(m.Servers[i].Addr)
	}
	return headerSize + body
}
func (m *ServerListResp) walk(c *codec) {
	c.status(&m.Status)
	list(c, &m.Servers, (*ServerAddr).walk)
}

func (*AssignTabletsReq) Op() Op { return OpAssignTabletsReq }
func (m *AssignTabletsReq) WireSize() int {
	return headerSize + 4 + len(m.Tablets)*tabletSize
}
func (m *AssignTabletsReq) walk(c *codec) { list(c, &m.Tablets, (*Tablet).walk) }

func (*AssignTabletsResp) Op() Op          { return OpAssignTabletsResp }
func (*AssignTabletsResp) WireSize() int   { return headerSize + 1 }
func (m *AssignTabletsResp) walk(c *codec) { c.status(&m.Status) }
