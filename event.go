package psharp

import (
	"reflect"
	"strings"

	"github.com/psharp-go/psharp/internal/vclock"
)

// Event is the interface implemented by all P# events. Events are plain Go
// values (usually pointers to structs, so that payloads are passed by
// reference like in the paper); embed EventBase to satisfy the interface:
//
//	type Req struct {
//		psharp.EventBase
//		Sender psharp.MachineID
//		Data   []int
//	}
type Event interface{ isPSharpEvent() }

// EventBase is embedded in user event types to mark them as events.
type EventBase struct{}

func (EventBase) isPSharpEvent() {}

// HaltEvent is the built-in halt event. Sending it to a machine (or raising
// it) terminates the machine: its queue is dropped and subsequent events to
// it are silently discarded, mirroring the P# halt semantics.
type HaltEvent struct{ EventBase }

// MachineCrashed is the lifecycle event dispatched to specification monitors
// when fault injection crashes a machine, immediately before the crash takes
// effect. Restart reports whether the same fault will reboot the machine.
// Monitors whose current state has no binding for it skip it, so existing
// monitors are unaffected by enabling faults.
type MachineCrashed struct {
	EventBase
	Machine MachineID
	Restart bool
}

// MachineRestarted is the lifecycle event dispatched to specification
// monitors when a crashed machine has been rebooted from its creation
// payload (same MachineID, fresh logic).
type MachineRestarted struct {
	EventBase
	Machine MachineID
}

// eventName strips the package path from an event's dynamic type.
func eventName(ev Event) string { return eventTypeName(reflect.TypeOf(ev)) }

// eventTypeName is eventName of an event of type t.
func eventTypeName(t reflect.Type) string {
	for t.Kind() == reflect.Ptr {
		t = t.Elem()
	}
	name := t.String()
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	return name
}

// envelope is an event in a machine's mailbox: the event, who sent it, and
// the send's happens-before clock for the race detector. Nothing numbers
// sends: the mailbox order is the only order a receiver can see.
type envelope struct {
	event  Event
	sender MachineID
	clock  vclock.VC // nil when race detection is off
}
