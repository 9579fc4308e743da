(* Tests of the benchmark's own machinery: order statistics, the host
   speed calibration, span self time, the skild mix's generator and its
   expected values, and failure accounting: a stalled native run is a
   failed job, any other failure is wrong output. *)

open Perfbench_lib

let feq = Alcotest.float 1e-9

(* ---------------- order statistics ---------------- *)

let test_median () =
  Alcotest.check feq "odd" 3. (Pstats.median [ 5.; 1.; 3. ]);
  Alcotest.check feq "even" 2.5 (Pstats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check feq "one" 7. (Pstats.median [ 7. ])

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (option feq)) "p90 of 1..100" (Some 90.)
    (Pstats.percentile xs 0.9);
  Alcotest.(check (option feq)) "p50 of 1..100" (Some 50.)
    (Pstats.percentile xs 0.5);
  (* 99 samples leave only nine beyond the p90: refused *)
  Alcotest.(check (option feq)) "p90 of 99 refused" None
    (Pstats.percentile (List.tl xs) 0.9);
  Alcotest.(check (option feq)) "p50 of 19 refused" None
    (Pstats.percentile (List.init 19 float_of_int) 0.5);
  Alcotest.(check int) "samples for p90" 100 (Pstats.needed 0.9);
  Alcotest.(check int) "samples for p50" 20 (Pstats.needed 0.5);
  (* a failed job's infinite latency sorts last, so it counts as missing
     every limit without dropping out of the sample *)
  let twenty = List.init 20 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (option feq)) "p50 of 1..20" (Some 10.)
    (Pstats.percentile twenty 0.5);
  Alcotest.(check (option feq)) "infinity kept in sample" (Some 11.)
    (Pstats.percentile (infinity :: twenty) 0.5)

(* ---------------- calibration ---------------- *)

let test_calib_scale () =
  Alcotest.check feq "at the reference speed" 0.2
    (Calib.scale ~calib:Calib.reference_s 0.2);
  Alcotest.check feq "on a host twice as slow" 0.1
    (Calib.scale ~calib:(2. *. Calib.reference_s) 0.2);
  Alcotest.check feq "a failed job still misses every limit" infinity
    (Calib.scale ~calib:0.007 infinity);
  Alcotest.(check bool) "the work takes time" true (Calib.time () > 0.)

(* ---------------- spans ---------------- *)

let span id parent name t0 t1 = { Span.id; parent; name; job = "j"; t0; t1 }

let test_self_time () =
  let spans =
    [
      span 1 0 "root" 0. 10.;
      span 2 1 "a" 1. 3.;
      span 3 1 "b" 2. 5.;  (* overlaps a: the union counts once *)
      span 4 1 "c" 8. 12.;  (* clipped to the parent's end *)
      span 5 2 "grandchild" 1. 2.;  (* covers a, not root *)
    ]
  in
  let selfs = Span.self_times spans in
  let self name = List.assoc name (List.map (fun (s, v) -> (s.Span.name, v)) selfs) in
  Alcotest.check feq "root" 4. (self "root");
  Alcotest.check feq "a" 1. (self "a");
  Alcotest.check feq "b" 3. (self "b");
  Alcotest.check feq "grandchild" 1. (self "grandchild");
  Alcotest.check feq "mean self ms" 1000. (Span.mean_self_ms selfs "a")

let test_with_span () =
  let tr = Span.create () in
  Span.with_span (Some tr) ~parent:0 ~name:"outer" ~job:"x" (fun p ->
      Span.with_span (Some tr) ~parent:p ~name:"inner" ~job:"x" (fun _ -> ()));
  match Span.spans tr with
  | [ inner; outer ] ->
      Alcotest.(check string) "inner first" "inner" inner.name;
      Alcotest.(check int) "parent link" outer.id inner.parent;
      Alcotest.(check bool) "nested" true
        (outer.t0 <= inner.t0 && inner.t1 <= outer.t1)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

(* ---------------- generator ---------------- *)

let test_stream_deterministic () =
  let a = Gen.make_stream 42 and b = Gen.make_stream 42 in
  let c = Gen.make_stream 43 in
  let jobs st = List.init 64 (fun i -> (Gen.job st i).src) in
  Alcotest.(check (list string)) "same seed, same jobs" (jobs a) (jobs b);
  Alcotest.(check bool) "other seed, other jobs" true (jobs a <> jobs c);
  (* the same index drawn twice (by any client) is the same job *)
  Alcotest.(check string) "pure in the index" (Gen.job a 17).src
    (Gen.job a 17).src

let test_stream_mix () =
  let st = Gen.make_stream 7 in
  for b = 0 to 19 do
    let block = List.init Gen.block (fun k -> Gen.job st ((b * Gen.block) + k)) in
    let hits = List.filter (fun (j : Gen.job) -> j.kind = Gen.Hit) block in
    let misses = List.filter (fun (j : Gen.job) -> j.kind = Gen.Miss) block in
    Alcotest.(check int) "hits per block" Gen.hits_per_block (List.length hits);
    Alcotest.(check int) "half the misses fused"
      (List.length misses / 2)
      (List.length (List.filter (fun (j : Gen.job) -> j.fuse) misses));
    List.iter
      (fun (j : Gen.job) ->
        Alcotest.(check bool) "hit is a hot program" true
          (Array.exists (fun (h : Gen.job) -> h.src = j.src) st.hot))
      hits
  done;
  let srcs = List.init 200 (fun i -> Gen.job st i) in
  let miss_srcs =
    List.filter_map
      (fun (j : Gen.job) -> if j.kind = Gen.Miss then Some j.src else None)
      srcs
  in
  Alcotest.(check int) "misses are distinct"
    (List.length miss_srcs)
    (List.length (List.sort_uniq compare miss_srcs))

(* The generator's plain-OCaml value must match what the Skil engines
   compute, with and without fusion. *)
let test_expected_value () =
  let st = Gen.make_stream 5 in
  let jobs =
    Array.to_list st.hot
    @ List.filter (fun (j : Gen.job) -> j.kind = Gen.Miss)
        (List.init 16 (Gen.job st))
  in
  List.iter
    (fun (j : Gen.job) ->
      List.iter
        (fun (engine, optimize) ->
          let r =
            Spmd.run_source ~engine ~optimize ~topology:Svc.topology j.src
              ~entry:"main" ~args:[]
          in
          Alcotest.(check string) "value" (string_of_int j.value)
            (Value.describe r.Machine.values.(0).Spmd.value);
          Alcotest.(check string) "printed" (Svc.expected_output j)
            (Apps.render r))
        [ (`Ast, `None); (`Compiled, `None); (`Compiled, `Fuse) ])
    jobs

(* ---------------- failure accounting ---------------- *)

let test_stall_is_failed_job () =
  let app = List.hd Apps.apps in
  let calls = ref 0 in
  let j =
    Apps.timed_job ~jobid:"stall" app
      ~check:(fun r -> Apps.Done r)
      (fun () ->
        incr calls;
        Machine.run_native ~topology:(Topology.mesh ~width:2 ~height:1)
          (fun ctx ->
            if Machine.self ctx = 0 then
              ignore (Machine.recv ctx ~src:1 ~tag:99 : int);
            { Spmd.value = Value.VUnit; printed = "" }))
  in
  Alcotest.(check bool) "outcome is Stalled" true (j.outcome = Apps.Stalled);
  Alcotest.(check int) "not retried" 1 !calls;
  let acct = Acct.create () in
  Acct.apps acct [ j ];
  Alcotest.(check (list int)) "attempted/failed/stalled" [ 1; 1; 1 ]
    [ acct.attempted; acct.failed; acct.stalled ];
  Alcotest.(check bool) "a stall is not wrong output" true (Acct.correct acct);
  Alcotest.(check bool) "kept in the sample as a miss of every limit" true
    (Apps.latency j = infinity && Apps.scaled_latency j = infinity)

(* Any failure but a stall is wrong output: a run that raises... *)
let test_raise_is_wrong () =
  let app = List.hd Apps.apps in
  let j =
    Apps.timed_job ~jobid:"raise" app
      ~check:(fun r -> Apps.Done r)
      (fun () -> failwith "forced")
  in
  let acct = Acct.create () in
  Acct.apps acct [ j ];
  Alcotest.(check (list int)) "attempted/failed/stalled" [ 1; 1; 0 ]
    [ acct.attempted; acct.failed; acct.stalled ];
  Alcotest.(check bool) "incorrect" false (Acct.correct acct)

(* ... and an ERR reply from the service. *)
let test_err_reply_is_wrong () =
  let st = Gen.make_stream 3 in
  let svc = Svc.start ~workers:1 st in
  Fun.protect ~finally:(fun () -> Svc.stop svc) (fun () ->
      let job = { (Gen.job st 0) with src = "int main( {" } in
      let conn = Svc.connect svc in
      Svc.send conn ~id:"bad" job;
      let _, line = Svc.next_reply conn in
      Svc.close conn;
      let verdict = Svc.check job line in
      (match verdict with
       | Svc.Failed _ -> ()
       | _ -> Alcotest.failf "expected an ERR reply, got %s" line);
      let acct = Acct.create () in
      Acct.svc acct
        [ { Svc.index = job.index; kind = job.kind; latency = infinity;
            verdict; direct = None } ];
      Alcotest.(check (list int)) "attempted/failed" [ 1; 1 ]
        [ acct.attempted; acct.failed ];
      Alcotest.(check bool) "incorrect" false (Acct.correct acct))

let test_pins_parse () =
  List.iter
    (fun (app : Apps.app) ->
      let p = Apps.pin app in
      Alcotest.(check bool) (app.name ^ " pinned") true
        (p.msgs > 0 && p.makespan > 0. && p.output <> ""))
    Apps.apps

let () =
  Alcotest.run "perfbench"
    [
      ( "pstats",
        [ Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "percentile" `Quick test_percentile ] );
      ("calib", [ Alcotest.test_case "scale" `Quick test_calib_scale ]);
      ( "span",
        [ Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "with_span nesting" `Quick test_with_span ] );
      ( "gen",
        [ Alcotest.test_case "deterministic per seed" `Quick
            test_stream_deterministic;
          Alcotest.test_case "designed mix" `Quick test_stream_mix;
          Alcotest.test_case "expected value" `Quick test_expected_value ] );
      ( "accounting",
        [ Alcotest.test_case "stall is a failed job" `Quick
            test_stall_is_failed_job;
          Alcotest.test_case "raise is wrong output" `Quick test_raise_is_wrong;
          Alcotest.test_case "ERR reply is wrong output" `Quick
            test_err_reply_is_wrong;
          Alcotest.test_case "pins parse" `Quick test_pins_parse ] );
    ]
