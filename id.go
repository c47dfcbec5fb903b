package psharp

import "fmt"

// MachineID identifies a machine instance. IDs are assigned sequentially in
// creation order, which makes them deterministic under the serialized
// testing runtime and therefore usable in schedule traces.
//
// The zero value is not a valid machine.
type MachineID struct {
	// Type is the registered machine type name.
	Type string
	// Seq is the 1-based global creation index.
	Seq uint64
}

// Ref returns the reference a Decision names the machine by.
func (id MachineID) Ref() MachineRef { return MachineRef{Seq: id.Seq} }

// IsNil reports whether the ID is the zero (invalid) ID.
func (id MachineID) IsNil() bool { return id.Seq == 0 }

func (id MachineID) String() string {
	if id.IsNil() {
		return "<nil-machine>"
	}
	return fmt.Sprintf("%s(%d)", id.Type, id.Seq)
}
