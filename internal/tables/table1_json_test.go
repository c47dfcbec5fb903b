package tables

import (
	"encoding/json"
	"testing"
	"time"
)

// TestTable1RowJSON pins the shape of a row in psharp-bench -json's table1
// slice: snake_case keys, the two times in microseconds and nothing in
// time.Duration's nanosecond encoding.
func TestTable1RowJSON(t *testing.T) {
	row := Table1Row{Name: "German", Suite: "PSharpBench", LoC: 90, FPsNoXSA: 1, Verified: true,
		Time: 83500 * time.Nanosecond, RacyTime: 2 * time.Millisecond, HasRacy: true, RacesFound: true}
	got, err := json.Marshal([]Table1Row{row})
	if err != nil {
		t.Fatal(err)
	}
	const want = `[{"name":"German","suite":"PSharpBench","loc":90,"machines":0,"state_transitions":0,"action_bindings":0,` +
		`"fps_no_xsa":1,"fps_xsa":0,"verified":true,"races_found":true,"has_racy":true,"time_us":83.5,"racy_time_us":2000}]`
	if string(got) != want {
		t.Errorf("Table1Row JSON drifted:\n got %s\nwant %s", got, want)
	}
}
