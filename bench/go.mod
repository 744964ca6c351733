module tipsy/bench

go 1.22

require tipsy v0.0.0

replace tipsy => ../
