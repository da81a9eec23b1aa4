module onefile/benchmark

go 1.23

require onefile v0.0.0

replace onefile => ../
