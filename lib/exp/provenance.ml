module Json = Sqed_obs.Json
module Solver = Sqed_smt.Solver

let config ~jobs ~fast =
  let c = Solver.config () in
  [
    ("jobs", Json.Int jobs);
    ("fast", Json.Bool fast);
    ("simplify", Json.Bool c.Solver.simplify);
    ("portfolio", Json.Int c.Solver.portfolio);
  ]
