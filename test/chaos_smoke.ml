(* Chaos smoke: the deterministic chaos search at a fixed seed and
   schedule budget, run by plain `dune runtest` and under the `@chaos`
   alias.

   Two halves:
   - the search proper: a fixed budget of seeded random fault
     schedules over the full fault vocabulary, every one of which must
     pass the whole oracle suite (including the periodic determinism
     double-runs) — the regression gate that the control plane
     survives what the generator throws at it;
   - the canary: a deliberately broken configuration (zero loss
     tolerance under a mid-flash vswitch crash padded with benign
     noise) that MUST violate Bounded_loss, which the shrinker must
     cut to at most [Chaos.canary_max_faults] faults and whose written
     repro must replay to the same verdict — the regression gate that
     the finder itself still finds, shrinks and reproduces.

   Exits non-zero on any miss. *)

module Chaos = Scotch_experiments.Chaos
module Search = Scotch_chaos.Search
module Oracle = Scotch_chaos.Oracle

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("chaos smoke FAILED: " ^ s); exit 1) fmt

let schedules = 20

let () =
  (* search: fixed seed, full oracle suite, zero violations *)
  let o = Chaos.search ~seed:42 ~schedules () in
  if o.Search.explored <> schedules then
    fail "explored %d of %d schedules" o.Search.explored schedules;
  List.iter
    (fun (i, vs) ->
      List.iter
        (fun v -> Printf.eprintf "trial %d: %s\n" i (Format.asprintf "%a" Oracle.pp_violation v))
        vs)
    o.Search.violations;
  List.iter (fail "%s") (Chaos.search_failures o);
  Printf.printf "search: %d schedules, %d faults, %d determinism double-runs, 0 violations\n"
    o.Search.explored o.Search.faults_injected o.Search.determinism_checks;
  (* canary: the broken config must be caught, shrunk and reproduced *)
  let c, replayed = Chaos.canary ~seed:42 () in
  List.iter (fail "%s") (Chaos.canary_failures c ~replayed);
  Option.iter
    (fun s ->
      Printf.printf "canary: shrunk %d -> %d fault(s) in %d candidate run(s), repro replayed\n"
        (List.length s.Search.original.Scotch_chaos.Schedule.faults)
        (List.length s.Search.minimal.Scotch_chaos.Schedule.faults)
        s.Search.shrink_tests)
    c.Search.shrunk;
  print_endline "chaos smoke OK"
