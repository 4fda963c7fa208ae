module privateer/benchmark

go 1.22

require privateer v0.0.0

replace privateer => ../
