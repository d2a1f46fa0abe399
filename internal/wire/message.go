package wire

// Message is implemented by every wire message struct (pointer receivers).
// The interface replaces the package's former OpOf and Size type switches:
// the RPC fast path dispatches through two devirtualizable methods instead
// of walking a ~34-case switch twice per RPC, and messages cross the
// simulated fabric without any `any` boxing.
//
// The unexported encodeBody method seals the interface: only types declared
// in this package can be wire messages, so the codec (and the round-trip
// test over all opcodes) is guaranteed to cover every implementation.
type Message interface {
	// Op returns the message's opcode.
	Op() Op
	// WireSize returns the exact on-wire size in bytes, header included,
	// counting declared value lengths for virtual payloads.
	WireSize() int
	// encodeBody appends the message body (everything after the header)
	// to the encoder.
	encodeBody(e *encoder) error
}

// Client data plane --------------------------------------------------------

func (*ReadReq) Op() Op          { return OpReadReq }
func (m *ReadReq) WireSize() int { return headerSize + 8 + 4 + len(m.Key) }
func (m *ReadReq) encodeBody(e *encoder) error {
	e.u64(m.Table)
	e.bytes(m.Key)
	return nil
}

func (*ReadResp) Op() Op          { return OpReadResp }
func (m *ReadResp) WireSize() int { return headerSize + 1 + 8 + 4 + int(m.ValueLen) }
func (m *ReadResp) encodeBody(e *encoder) error {
	e.u8(uint8(m.Status))
	e.u64(m.Version)
	return encodeValue(e, m.ValueLen, m.Value)
}

func (*WriteReq) Op() Op          { return OpWriteReq }
func (m *WriteReq) WireSize() int { return headerSize + 8 + 4 + len(m.Key) + 4 + int(m.ValueLen) }
func (m *WriteReq) encodeBody(e *encoder) error {
	e.u64(m.Table)
	e.bytes(m.Key)
	return encodeValue(e, m.ValueLen, m.Value)
}

func (*WriteResp) Op() Op        { return OpWriteResp }
func (*WriteResp) WireSize() int { return headerSize + 1 + 8 }
func (m *WriteResp) encodeBody(e *encoder) error {
	e.u8(uint8(m.Status))
	e.u64(m.Version)
	return nil
}

func (*DeleteReq) Op() Op          { return OpDeleteReq }
func (m *DeleteReq) WireSize() int { return headerSize + 8 + 4 + len(m.Key) }
func (m *DeleteReq) encodeBody(e *encoder) error {
	e.u64(m.Table)
	e.bytes(m.Key)
	return nil
}

func (*DeleteResp) Op() Op        { return OpDeleteResp }
func (*DeleteResp) WireSize() int { return headerSize + 1 + 8 }
func (m *DeleteResp) encodeBody(e *encoder) error {
	e.u8(uint8(m.Status))
	e.u64(m.Version)
	return nil
}

func (*MultiReadReq) Op() Op { return OpMultiReadReq }
func (m *MultiReadReq) WireSize() int {
	body := 4
	for i := range m.Items {
		body += 8 + 4 + len(m.Items[i].Key)
	}
	return headerSize + body
}
func (m *MultiReadReq) encodeBody(e *encoder) error {
	e.u32(uint32(len(m.Items)))
	for i := range m.Items {
		e.u64(m.Items[i].Table)
		e.bytes(m.Items[i].Key)
	}
	return nil
}

func (*MultiReadResp) Op() Op { return OpMultiReadResp }
func (m *MultiReadResp) WireSize() int {
	body := 1 + 4
	for i := range m.Items {
		body += 1 + 8 + 4 + int(m.Items[i].ValueLen)
	}
	return headerSize + body
}
func (m *MultiReadResp) encodeBody(e *encoder) error {
	e.u8(uint8(m.Status))
	e.u32(uint32(len(m.Items)))
	for i := range m.Items {
		it := &m.Items[i]
		e.u8(uint8(it.Status))
		e.u64(it.Version)
		if err := encodeValue(e, it.ValueLen, it.Value); err != nil {
			return err
		}
	}
	return nil
}

func (*MultiWriteReq) Op() Op { return OpMultiWriteReq }
func (m *MultiWriteReq) WireSize() int {
	body := 4
	for i := range m.Items {
		body += 8 + 4 + len(m.Items[i].Key) + 4 + int(m.Items[i].ValueLen)
	}
	return headerSize + body
}
func (m *MultiWriteReq) encodeBody(e *encoder) error {
	e.u32(uint32(len(m.Items)))
	for i := range m.Items {
		it := &m.Items[i]
		e.u64(it.Table)
		e.bytes(it.Key)
		if err := encodeValue(e, it.ValueLen, it.Value); err != nil {
			return err
		}
	}
	return nil
}

func (*MultiWriteResp) Op() Op { return OpMultiWriteResp }
func (m *MultiWriteResp) WireSize() int {
	return headerSize + 1 + 4 + len(m.Items)*(1+8)
}
func (m *MultiWriteResp) encodeBody(e *encoder) error {
	e.u8(uint8(m.Status))
	e.u32(uint32(len(m.Items)))
	for i := range m.Items {
		e.u8(uint8(m.Items[i].Status))
		e.u64(m.Items[i].Version)
	}
	return nil
}

// Coordinator control plane ------------------------------------------------

func (*CreateTableReq) Op() Op          { return OpCreateTableReq }
func (m *CreateTableReq) WireSize() int { return headerSize + 4 + len(m.Name) + 4 }
func (m *CreateTableReq) encodeBody(e *encoder) error {
	e.str(m.Name)
	e.u32(m.ServerSpan)
	return nil
}

func (*CreateTableResp) Op() Op        { return OpCreateTableResp }
func (*CreateTableResp) WireSize() int { return headerSize + 1 + 8 }
func (m *CreateTableResp) encodeBody(e *encoder) error {
	e.u8(uint8(m.Status))
	e.u64(m.Table)
	return nil
}

func (*DropTableReq) Op() Op          { return OpDropTableReq }
func (m *DropTableReq) WireSize() int { return headerSize + 4 + len(m.Name) }
func (m *DropTableReq) encodeBody(e *encoder) error {
	e.str(m.Name)
	return nil
}

func (*DropTableResp) Op() Op        { return OpDropTableResp }
func (*DropTableResp) WireSize() int { return headerSize + 1 }
func (m *DropTableResp) encodeBody(e *encoder) error {
	e.u8(uint8(m.Status))
	return nil
}

func (*GetTabletMapReq) Op() Op                      { return OpGetTabletMapReq }
func (*GetTabletMapReq) WireSize() int               { return headerSize }
func (*GetTabletMapReq) encodeBody(e *encoder) error { return nil }

func (*GetTabletMapResp) Op() Op { return OpGetTabletMapResp }
func (m *GetTabletMapResp) WireSize() int {
	return headerSize + 1 + 4 + len(m.Tablets)*tabletSize
}
func (m *GetTabletMapResp) encodeBody(e *encoder) error {
	e.u8(uint8(m.Status))
	e.u32(uint32(len(m.Tablets)))
	for i := range m.Tablets {
		encodeTablet(e, &m.Tablets[i])
	}
	return nil
}

func (*EnlistReq) Op() Op        { return OpEnlistReq }
func (*EnlistReq) WireSize() int { return headerSize + 4 + 8 + 1 }
func (m *EnlistReq) encodeBody(e *encoder) error {
	e.i32(m.Node)
	e.i64(m.MemoryBytes)
	e.b1(m.HasBackup)
	return nil
}

func (*EnlistResp) Op() Op        { return OpEnlistResp }
func (*EnlistResp) WireSize() int { return headerSize + 1 + 4 }
func (m *EnlistResp) encodeBody(e *encoder) error {
	e.u8(uint8(m.Status))
	e.i32(m.ServerID)
	return nil
}

func (*PingReq) Op() Op        { return OpPingReq }
func (*PingReq) WireSize() int { return headerSize + 8 }
func (m *PingReq) encodeBody(e *encoder) error {
	e.u64(m.Seq)
	return nil
}

func (*PingResp) Op() Op        { return OpPingResp }
func (*PingResp) WireSize() int { return headerSize + 8 }
func (m *PingResp) encodeBody(e *encoder) error {
	e.u64(m.Seq)
	return nil
}

func (*SetWillReq) Op() Op          { return OpSetWillReq }
func (m *SetWillReq) WireSize() int { return headerSize + 4 + 4 + len(m.Partitions)*willPartSize }
func (m *SetWillReq) encodeBody(e *encoder) error {
	e.i32(m.Master)
	e.u32(uint32(len(m.Partitions)))
	for _, pt := range m.Partitions {
		e.u64(pt.FirstHash)
		e.u64(pt.LastHash)
	}
	return nil
}

func (*SetWillResp) Op() Op        { return OpSetWillResp }
func (*SetWillResp) WireSize() int { return headerSize + 1 }
func (m *SetWillResp) encodeBody(e *encoder) error {
	e.u8(uint8(m.Status))
	return nil
}

// Replication plane ---------------------------------------------------------

func (*OpenSegmentReq) Op() Op        { return OpOpenSegmentReq }
func (*OpenSegmentReq) WireSize() int { return headerSize + 4 + 8 }
func (m *OpenSegmentReq) encodeBody(e *encoder) error {
	e.i32(m.Master)
	e.u64(m.Segment)
	return nil
}

func (*OpenSegmentResp) Op() Op        { return OpOpenSegmentResp }
func (*OpenSegmentResp) WireSize() int { return headerSize + 1 }
func (m *OpenSegmentResp) encodeBody(e *encoder) error {
	e.u8(uint8(m.Status))
	return nil
}

func (*ReplicateReq) Op() Op { return OpReplicateReq }
func (m *ReplicateReq) WireSize() int {
	body := 4 + 8 + 4
	for i := range m.Objects {
		body += objectSize(&m.Objects[i])
	}
	return headerSize + body
}
func (m *ReplicateReq) encodeBody(e *encoder) error {
	e.i32(m.Master)
	e.u64(m.Segment)
	e.u32(uint32(len(m.Objects)))
	for i := range m.Objects {
		if err := encodeObject(e, &m.Objects[i]); err != nil {
			return err
		}
	}
	return nil
}

func (*ReplicateResp) Op() Op        { return OpReplicateResp }
func (*ReplicateResp) WireSize() int { return headerSize + 1 }
func (m *ReplicateResp) encodeBody(e *encoder) error {
	e.u8(uint8(m.Status))
	return nil
}

func (*CloseSegmentReq) Op() Op        { return OpCloseSegmentReq }
func (*CloseSegmentReq) WireSize() int { return headerSize + 4 + 8 + 4 }
func (m *CloseSegmentReq) encodeBody(e *encoder) error {
	e.i32(m.Master)
	e.u64(m.Segment)
	e.u32(m.SegmentBytes)
	return nil
}

func (*CloseSegmentResp) Op() Op        { return OpCloseSegmentResp }
func (*CloseSegmentResp) WireSize() int { return headerSize + 1 }
func (m *CloseSegmentResp) encodeBody(e *encoder) error {
	e.u8(uint8(m.Status))
	return nil
}

func (*FreeReplicasReq) Op() Op        { return OpFreeReplicasReq }
func (*FreeReplicasReq) WireSize() int { return headerSize + 4 }
func (m *FreeReplicasReq) encodeBody(e *encoder) error {
	e.i32(m.Master)
	return nil
}

func (*FreeReplicasResp) Op() Op        { return OpFreeReplicasResp }
func (*FreeReplicasResp) WireSize() int { return headerSize + 1 }
func (m *FreeReplicasResp) encodeBody(e *encoder) error {
	e.u8(uint8(m.Status))
	return nil
}

func (*RDMAWriteReq) Op() Op { return OpRDMAWriteReq }
func (m *RDMAWriteReq) WireSize() int {
	body := 4 + 8 + 4
	for i := range m.Objects {
		body += objectSize(&m.Objects[i])
	}
	return headerSize + body
}
func (m *RDMAWriteReq) encodeBody(e *encoder) error {
	e.i32(m.Master)
	e.u64(m.Segment)
	e.u32(uint32(len(m.Objects)))
	for i := range m.Objects {
		if err := encodeObject(e, &m.Objects[i]); err != nil {
			return err
		}
	}
	return nil
}

func (*RDMAWriteResp) Op() Op        { return OpRDMAWriteResp }
func (*RDMAWriteResp) WireSize() int { return headerSize + 1 }
func (m *RDMAWriteResp) encodeBody(e *encoder) error {
	e.u8(uint8(m.Status))
	return nil
}

// Recovery plane -------------------------------------------------------------

func (*SegmentInventoryReq) Op() Op        { return OpSegmentInventoryReq }
func (*SegmentInventoryReq) WireSize() int { return headerSize + 4 }
func (m *SegmentInventoryReq) encodeBody(e *encoder) error {
	e.i32(m.Master)
	return nil
}

func (*SegmentInventoryResp) Op() Op { return OpSegmentInventoryResp }
func (m *SegmentInventoryResp) WireSize() int {
	return headerSize + 1 + 4 + len(m.Segments)*segInfoSize
}
func (m *SegmentInventoryResp) encodeBody(e *encoder) error {
	e.u8(uint8(m.Status))
	e.u32(uint32(len(m.Segments)))
	for _, s := range m.Segments {
		e.u64(s.Segment)
		e.u32(s.Bytes)
	}
	return nil
}

func (*GetRecoveryDataReq) Op() Op        { return OpGetRecoveryDataReq }
func (*GetRecoveryDataReq) WireSize() int { return headerSize + 4 + 8 + 8 + 8 }
func (m *GetRecoveryDataReq) encodeBody(e *encoder) error {
	e.i32(m.Master)
	e.u64(m.Segment)
	e.u64(m.FirstHash)
	e.u64(m.LastHash)
	return nil
}

func (*GetRecoveryDataResp) Op() Op { return OpGetRecoveryDataResp }
func (m *GetRecoveryDataResp) WireSize() int {
	body := 1 + 4 + 4
	for i := range m.Objects {
		body += objectSize(&m.Objects[i])
	}
	return headerSize + body
}
func (m *GetRecoveryDataResp) encodeBody(e *encoder) error {
	e.u8(uint8(m.Status))
	e.u32(m.SegmentBytes)
	e.u32(uint32(len(m.Objects)))
	for i := range m.Objects {
		if err := encodeObject(e, &m.Objects[i]); err != nil {
			return err
		}
	}
	return nil
}

func (*RecoverReq) Op() Op { return OpRecoverReq }
func (m *RecoverReq) WireSize() int {
	return headerSize + 4 + 8 + 8 +
		4 + len(m.Tablets)*tabletSize +
		4 + len(m.Segments)*segLocSize
}
func (m *RecoverReq) encodeBody(e *encoder) error {
	e.i32(m.Crashed)
	e.u64(m.FirstHash)
	e.u64(m.LastHash)
	e.u32(uint32(len(m.Tablets)))
	for i := range m.Tablets {
		encodeTablet(e, &m.Tablets[i])
	}
	e.u32(uint32(len(m.Segments)))
	for _, s := range m.Segments {
		e.u64(s.Segment)
		e.i32(s.Backup)
		e.u32(s.Bytes)
	}
	return nil
}

func (*RecoverResp) Op() Op        { return OpRecoverResp }
func (*RecoverResp) WireSize() int { return headerSize + 1 }
func (m *RecoverResp) encodeBody(e *encoder) error {
	e.u8(uint8(m.Status))
	return nil
}

func (*RecoveryDoneReq) Op() Op        { return OpRecoveryDoneReq }
func (*RecoveryDoneReq) WireSize() int { return headerSize + 4 + 8 + 1 }
func (m *RecoveryDoneReq) encodeBody(e *encoder) error {
	e.i32(m.Crashed)
	e.u64(m.FirstHash)
	e.b1(m.Ok)
	return nil
}

func (*RecoveryDoneResp) Op() Op        { return OpRecoveryDoneResp }
func (*RecoveryDoneResp) WireSize() int { return headerSize + 1 }
func (m *RecoveryDoneResp) encodeBody(e *encoder) error {
	e.u8(uint8(m.Status))
	return nil
}

// Migration plane ------------------------------------------------------------

func (*MigrateTabletReq) Op() Op        { return OpMigrateTabletReq }
func (*MigrateTabletReq) WireSize() int { return headerSize + 8 + 8 + 8 + 4 }
func (m *MigrateTabletReq) encodeBody(e *encoder) error {
	e.u64(m.Table)
	e.u64(m.FirstHash)
	e.u64(m.LastHash)
	e.i32(m.Dst)
	return nil
}

func (*MigrateTabletResp) Op() Op        { return OpMigrateTabletResp }
func (*MigrateTabletResp) WireSize() int { return headerSize + 1 + 4 }
func (m *MigrateTabletResp) encodeBody(e *encoder) error {
	e.u8(uint8(m.Status))
	e.u32(m.Moved)
	return nil
}

func (*TakeTabletReq) Op() Op { return OpTakeTabletReq }
func (m *TakeTabletReq) WireSize() int {
	body := 8 + 8 + 8 + 4
	for i := range m.Objects {
		body += objectSize(&m.Objects[i])
	}
	return headerSize + body
}
func (m *TakeTabletReq) encodeBody(e *encoder) error {
	e.u64(m.Table)
	e.u64(m.FirstHash)
	e.u64(m.LastHash)
	e.u32(uint32(len(m.Objects)))
	for i := range m.Objects {
		if err := encodeObject(e, &m.Objects[i]); err != nil {
			return err
		}
	}
	return nil
}

func (*TakeTabletResp) Op() Op        { return OpTakeTabletResp }
func (*TakeTabletResp) WireSize() int { return headerSize + 1 }
func (m *TakeTabletResp) encodeBody(e *encoder) error {
	e.u8(uint8(m.Status))
	return nil
}

// Real-transport control plane ----------------------------------------------

func (*EnlistAddrReq) Op() Op          { return OpEnlistAddrReq }
func (m *EnlistAddrReq) WireSize() int { return headerSize + 4 + len(m.Addr) + 8 }
func (m *EnlistAddrReq) encodeBody(e *encoder) error {
	e.str(m.Addr)
	e.i64(m.MemoryBytes)
	return nil
}

func (*EnlistAddrResp) Op() Op        { return OpEnlistAddrResp }
func (*EnlistAddrResp) WireSize() int { return headerSize + 1 + 4 }
func (m *EnlistAddrResp) encodeBody(e *encoder) error {
	e.u8(uint8(m.Status))
	e.i32(m.ServerID)
	return nil
}

func (*ServerListReq) Op() Op                      { return OpServerListReq }
func (*ServerListReq) WireSize() int               { return headerSize }
func (*ServerListReq) encodeBody(e *encoder) error { return nil }

func (*ServerListResp) Op() Op { return OpServerListResp }
func (m *ServerListResp) WireSize() int {
	body := 1 + 4
	for i := range m.Servers {
		body += 4 + 4 + len(m.Servers[i].Addr)
	}
	return headerSize + body
}
func (m *ServerListResp) encodeBody(e *encoder) error {
	e.u8(uint8(m.Status))
	e.u32(uint32(len(m.Servers)))
	for i := range m.Servers {
		e.i32(m.Servers[i].ID)
		e.str(m.Servers[i].Addr)
	}
	return nil
}

func (*AssignTabletsReq) Op() Op { return OpAssignTabletsReq }
func (m *AssignTabletsReq) WireSize() int {
	return headerSize + 4 + len(m.Tablets)*tabletSize
}
func (m *AssignTabletsReq) encodeBody(e *encoder) error {
	e.u32(uint32(len(m.Tablets)))
	for i := range m.Tablets {
		encodeTablet(e, &m.Tablets[i])
	}
	return nil
}

func (*AssignTabletsResp) Op() Op        { return OpAssignTabletsResp }
func (*AssignTabletsResp) WireSize() int { return headerSize + 1 }
func (m *AssignTabletsResp) encodeBody(e *encoder) error {
	e.u8(uint8(m.Status))
	return nil
}
