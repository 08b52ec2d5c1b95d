module adaptmirror/bench

go 1.22

require adaptmirror v0.0.0

replace adaptmirror => ../
