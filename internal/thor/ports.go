package thor

// PortSet models the memory-mapped I/O ports through which the workload
// exchanges data with the environment simulator (paper §3.2: "data may be
// exchanged with a user provided environment simulator"). Input ports are
// FIFO queues written by the host and read by IN; output ports are FIFO
// queues written by OUT and drained by the host.
type PortSet struct {
	in  map[uint16][]uint32
	out map[uint16][]uint32
}

// NewPortSet returns an empty port set.
func NewPortSet() *PortSet {
	return &PortSet{
		in:  make(map[uint16][]uint32),
		out: make(map[uint16][]uint32),
	}
}

// Reset discards all queued data.
func (p *PortSet) Reset() {
	p.in = make(map[uint16][]uint32)
	p.out = make(map[uint16][]uint32)
}

// Clone returns a deep copy of the port set, for snapshots.
func (p *PortSet) Clone() *PortSet {
	c := NewPortSet()
	c.CopyFrom(p)
	return c
}

// CopyFrom replaces the port set's contents with a deep copy of src; src
// is left untouched, so a shared snapshot can be copied onto any number
// of boards.
func (p *PortSet) CopyFrom(src *PortSet) {
	p.in = make(map[uint16][]uint32, len(src.in))
	for port, q := range src.in {
		p.in[port] = append([]uint32(nil), q...)
	}
	p.out = make(map[uint16][]uint32, len(src.out))
	for port, q := range src.out {
		p.out[port] = append([]uint32(nil), q...)
	}
}

// queuedValues counts all values held in input and output queues.
func (p *PortSet) queuedValues() int {
	n := 0
	for _, q := range p.in {
		n += len(q)
	}
	for _, q := range p.out {
		n += len(q)
	}
	return n
}

// PushInput queues values on an input port (host side).
func (p *PortSet) PushInput(port uint16, vals ...uint32) {
	p.in[port] = append(p.in[port], vals...)
}

// DrainOutput removes and returns all values written to an output port
// (host side).
func (p *PortSet) DrainOutput(port uint16) []uint32 {
	vals := p.out[port]
	p.out[port] = nil
	return vals
}

// PeekOutput returns the values on an output port without draining.
func (p *PortSet) PeekOutput(port uint16) []uint32 {
	out := make([]uint32, len(p.out[port]))
	copy(out, p.out[port])
	return out
}

// cpuRead pops one value from an input port, returning zero when empty
// (reading an idle bus).
func (p *PortSet) cpuRead(port uint16) uint32 {
	q := p.in[port]
	if len(q) == 0 {
		return 0
	}
	v := q[0]
	p.in[port] = q[1:]
	return v
}

// cpuWrite appends one value to an output port.
func (p *PortSet) cpuWrite(port uint16, v uint32) {
	p.out[port] = append(p.out[port], v)
}
