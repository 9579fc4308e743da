(* Job accounting for one run.  Every job is attempted once and either
   succeeds or fails.  The only failure the benchmark tolerates is a native
   [Machine.Stalled]: it is counted as failed and kept in the sample.  Any
   other failure (wrong output, an ERR reply, a raise) is wrong output and
   makes the run incorrect. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable stalled : int;
  mutable mismatches : string list;  (** newest first *)
}

let create () = { attempted = 0; failed = 0; stalled = 0; mismatches = [] }

let wrong t msg =
  t.mismatches <- msg :: t.mismatches;
  prerr_endline ("perfbench: wrong output: " ^ msg)

let apps t jobs =
  List.iter
    (fun (j : Apps.job) ->
      t.attempted <- t.attempted + 1;
      match j.outcome with
      | Apps.Done _ -> ()
      | Apps.Stalled ->
          t.failed <- t.failed + 1;
          t.stalled <- t.stalled + 1;
          Printf.eprintf "perfbench: native run stalled: %s after %.1f ms\n%!"
            j.app.name (j.wall *. 1000.)
      | Apps.Failed m | Apps.Mismatch m ->
          t.failed <- t.failed + 1;
          wrong t (j.app.name ^ ": " ^ m))
    jobs

let svc t results =
  List.iter
    (fun (r : Svc.result) ->
      t.attempted <- t.attempted + 1;
      match r.verdict with
      | Svc.Ok_job -> ()
      | Svc.Failed m | Svc.Mismatch m ->
          t.failed <- t.failed + 1;
          wrong t m)
    results

let correct t = t.mismatches = []
