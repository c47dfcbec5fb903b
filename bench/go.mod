module github.com/psharp-go/psharp/bench

go 1.24.0

require github.com/psharp-go/psharp v0.0.0

replace github.com/psharp-go/psharp => ../
