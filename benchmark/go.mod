module bugnet/benchmark

go 1.23

require bugnet v0.0.0

replace bugnet => ../
