// Package msg is one of two packages of the same name that each declare an
// event type Ping. reflect prints both types as "msg.Ping"; the state-hash
// regression test checks they are told apart all the same.
package msg

import "github.com/psharp-go/psharp"

// Ping is an event without a payload.
type Ping struct{ psharp.EventBase }
