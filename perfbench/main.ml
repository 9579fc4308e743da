(* The repository benchmark.  One command runs one workload and prints, as
   its last line, a JSON object with every metric, the attempted and failed
   job counts and whether every output was correct:

     main.exe --workload sim-paper|sim-fused --seed N --seconds S
              --trace 0|1

   --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
   runs the workload untraced and then traced, then the skild mix and the
   native engine, and reports the per-layer metrics.  `main.exe pin`
   prints expected.txt from the AST interpreter.  NOTES.md says why each
   workload exists. *)

open Perfbench_lib

(* The apps on the simulator as written, or as the skeleton-fusion
   optimizer rewrote them. *)
type workload = Sim_paper | Sim_fused

let workloads = [ ("sim-paper", Sim_paper); ("sim-fused", Sim_fused) ]

let engine = function Sim_paper -> Apps.Sim `None | Sim_fused -> Apps.Sim `Fuse

let nproc = Domain.recommended_domain_count ()

(* Load never exceeds the host: at most nproc native domains, service
   workers and client connections. *)
let native_domains = nproc
let workers = min 2 nproc
let clients = min 2 nproc

(* One job in flight per connection: no more jobs are in flight than the
   service has worker slots. *)
let window = 1

(* Set-up is repeated, at least [setup_reps] times and for [setup_min_s]
   seconds, and its median reported. *)
let setup_reps = 5
let setup_min_s = 1.

(* Rounds of the three apps needed for a median with ten samples beyond. *)
let min_rounds = Pstats.needed 0.5

let acct = Acct.create ()

(* ------------------------------------------------------------------ *)
(* Apps                                                                 *)

let prepare engine =
  List.map
    (fun (app : Apps.app) ->
      ( app,
        Spmd.prepare_source ~engine:(Apps.spmd_engine engine)
          ~optimize:(Apps.optimize engine) (Apps.source app) ~entry:app.entry ))
    Apps.apps

(* One warm-up run per program; a simulator warm-up also yields the
   program's exact counts and makespan. *)
let warm_apps engine handles =
  List.map
    (fun (app, p) ->
      let j = Apps.run_checked ~engine ~jobid:"warm" app p in
      Acct.apps acct [ j ];
      (app, j))
    handles

(* Closed loop, one job at a time: each round runs the three apps in a
   seeded order, with a major collection before each job.  The loop runs
   until [deadline] and on until every app has [rounds] successful runs
   (failed runs stay in the sample), giving up after four times that many
   rounds. *)
let app_phase ?tracer ~engine ~rng ~tag ~rounds handles deadline =
  let handles = Array.of_list handles in
  let jobs = ref [] in
  let successes = Hashtbl.create 3 in
  let fewest () =
    Array.fold_left
      (fun m ((app : Apps.app), _) ->
        min m (Option.value (Hashtbl.find_opt successes app.name) ~default:0))
      max_int handles
  in
  let rec round k =
    if k < 4 * rounds && (fewest () < rounds || Span.now () < deadline)
    then begin
      let order = Array.copy handles in
      for i = Array.length order - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      done;
      Array.iter
        (fun (app, p) ->
          let jobid = Printf.sprintf "%s-%d-%s" tag k app.Apps.name in
          (* finish the collector's cycle, so no job pays for the garbage
             of the one before it (gauss leaves the most), nor for the
             calibration's *)
          Gc.major ();
          let calib = Calib.time () in
          Gc.major ();
          let j = Apps.run_checked ?tracer ~calib ~engine ~jobid app p in
          if Apps.succeeded j then
            Hashtbl.replace successes app.name
              (1 + Option.value (Hashtbl.find_opt successes app.name) ~default:0);
          jobs := j :: !jobs)
        order;
      round (k + 1)
    end
  in
  round 0;
  let jobs = List.rev !jobs in
  Acct.apps acct jobs;
  jobs

let of_app (app : Apps.app) jobs =
  List.filter (fun (j : Apps.job) -> j.app.name = app.name) jobs

let percentile name xs p =
  match Pstats.percentile xs p with
  | Some v -> v
  | None ->
      failwith
        (Printf.sprintf "%s: %d samples are too few for p%g" name
           (List.length xs) (p *. 100.))

(* Replay each app's translation chain once and check that the replayed
   program prints what the prepared handle printed. *)
let replay_apps tracer engine warm =
  List.map
    (fun ((app : Apps.app), (j : Apps.job)) ->
      let c =
        Apps.replay ~tracer ~parent:0 ~job:("prepare-" ^ app.name)
          ~optimize:(Apps.optimize engine = `Fuse) ~entry:app.entry
          (Apps.source app)
      in
      (match j.outcome with
       | Apps.Done r ->
           let r' =
             Apps.run_replayed ~topology:app.topology c ~entry:app.entry
               ~args:[ Value.VInt app.n ]
           in
           if Apps.render r' <> Apps.render r then
             Acct.wrong acct (app.name ^ ": replayed chain output differs")
       | _ -> ());
      c)
    warm

(* ------------------------------------------------------------------ *)
(* Service                                                              *)

let start_service seed =
  let svc = Svc.start ~workers (Gen.make_stream seed) in
  Svc.warm svc ~misses:8;
  svc

(* Phase offsets keep every phase's misses distinct from earlier ones. *)
let next_first = ref 0

(* A phase's jobs and the service's counters over the phase. *)
type svc_run = {
  results : Svc.result list;
  hits : int;
  misses : int;
  shed : int;
  retried : int;
  reaped : int;
}

let hit_ratio r =
  float_of_int r.hits /. float_of_int (max 1 (r.hits + r.misses))

(* One closed-loop phase of the mix until [deadline], and the length of
   the loop in seconds.  A traced phase's jobs are replayed after the
   loop, outside its timing. *)
let svc_phase ?tracer ~on_chain svc deadline =
  let before = Service.stats svc.Svc.service in
  let t0 = Span.now () in
  let results =
    Svc.phase ?tracer svc ~clients ~window ~first:!next_first ~deadline
  in
  let elapsed = Span.now () -. t0 in
  next_first := !next_first + List.length results;
  let after = Service.stats svc.Svc.service in
  let results =
    match tracer with
    | None -> results
    | Some tr -> List.map (Svc.replay svc tr ~on_chain) results
  in
  Acct.svc acct results;
  let delta f = f after - f before in
  let run =
    { results;
      hits = delta (fun s -> s.Service.cache_hits);
      misses = delta (fun s -> s.Service.cache_misses);
      shed = delta (fun s -> s.Service.shed);
      retried = delta (fun s -> s.Service.retried);
      reaped = delta (fun s -> s.Service.reaped) }
  in
  if hit_ratio run <> Gen.hit_ratio then
    Acct.wrong acct
      (Printf.sprintf "cache-hit ratio %g, designed %g" (hit_ratio run)
         Gen.hit_ratio);
  (run, elapsed)

let latencies kind results =
  List.filter_map
    (fun (r : Svc.result) ->
      if r.kind = kind then Some r.latency else None)
    results

(* ------------------------------------------------------------------ *)
(* Output                                                               *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
      in
      go ())

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, value, unit) ->
         if not (Float.is_finite value) then
           failwith (Printf.sprintf "metric %s is not finite" name);
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit)
       metrics)

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)

let ms x = x *. 1000.

(* Start every measured phase from a collected heap, so one phase's
   garbage is not charged to the next. *)
let settle () = Gc.compact ()

(* Jobs completed by one half of a workload's own loop, and its length in
   seconds. *)
type timed = { completed : int; elapsed : float }

let rate t = float_of_int t.completed /. t.elapsed

(* Everything one run measures. *)
type measured = {
  setup_s : float;
  untraced : timed;
  traced : timed option;  (** --trace 1 only *)
  apps : Apps.job list;  (** the simulator runs of the three apps *)
  native : Apps.job list;  (** native-engine runs (traced runs only) *)
  makespans : (Apps.app * Apps.job) list;  (** simulator runs, one per app *)
  svc : (svc_run * float) option;
      (** the skild mix and its length in seconds (traced runs only) *)
  chains : ((string * float) list * float) list;
      (** replayed translation chains (traced): phase times, bytes allocated *)
}

let sim_makespan makespans =
  List.fold_left
    (fun acc (_, (j : Apps.job)) ->
      match j.outcome with
      | Apps.Done r -> acc +. r.Machine.time
      | _ -> failwith "a simulator reference run failed")
    0. makespans

let calib_apps m =
  Pstats.median (List.map (fun (j : Apps.job) -> j.calib) m.apps)

(* The times are rescaled to the reference host speed (see {!Calib}): an
   app job's by the calibration right before it, a set-up's likewise, and
   the loop's length by the median of its jobs' calibrations;
   [~rescaled:false] gives the jobs' times and rate as measured. *)
let end_to_end ~rescaled m =
  let app_p50 (app : Apps.app) =
    let latency = if rescaled then Apps.scaled_latency else Apps.latency in
    ( app.name ^ "_ms_p50",
      ms (percentile app.name (List.map latency (of_app app m.apps)) 0.5),
      "ms" )
  in
  let elapsed =
    if rescaled then Calib.scale ~calib:(calib_apps m) m.untraced.elapsed
    else m.untraced.elapsed
  in
  [
    ("setup_s", m.setup_s, "s");
    ("jobs_per_s", float_of_int m.untraced.completed /. elapsed, "1/s");
    ("peak_rss_mb", peak_rss_mb (), "MB");
  ]
  @ List.map app_p50 Apps.apps

let lang_metrics chains =
  let phase name (phases, _) =
    List.fold_left (fun a (n, s) -> if n = name then a +. ms s else a) 0. phases
  in
  let mean f = Pstats.mean (List.map f chains) in
  List.map
    (fun l -> ("lang." ^ l ^ "_ms", mean (phase ("lang." ^ l)), "ms"))
    [ "parse"; "typecheck"; "instantiate"; "optimize"; "compile" ]
  @ [ ("lang.alloc_mb", mean (fun (_, bytes) -> bytes /. 1048576.), "MB") ]

let service_metrics (svc, elapsed) =
  let svc_p kind name p =
    (name, ms (percentile name (latencies kind svc.results) p), "ms")
  in
  let ok (r : Svc.result) = r.verdict = Svc.Ok_job in
  let overheads =
    List.filter_map
      (fun (r : Svc.result) ->
        match r.direct with
        | Some d when Float.is_finite r.latency -> Some (ms (r.latency -. d))
        | _ -> None)
      svc.results
  in
  [
    ( "service.jobs_per_s",
      float_of_int (List.length (List.filter ok svc.results)) /. elapsed,
      "1/s" );
    svc_p Gen.Hit "service.hit_ms_p50" 0.5;
    svc_p Gen.Hit "service.hit_ms_p90" 0.9;
    svc_p Gen.Miss "service.miss_ms_p50" 0.5;
    svc_p Gen.Miss "service.miss_ms_p90" 0.9;
    ("service.overhead_ms_p50", percentile "overhead" overheads 0.5, "ms");
    ("service.overhead_ms_p90", percentile "overhead" overheads 0.9, "ms");
    ("service.cache_hit_ratio", hit_ratio svc, "ratio");
    ("service.shed", float_of_int svc.shed, "count");
    ("service.retried", float_of_int svc.retried, "count");
    ("service.reaped", float_of_int svc.reaped, "count");
  ]

let app_metrics m =
  List.concat_map
    (fun (app : Apps.app) ->
      let jobs = of_app app m.apps in
      let ok =
        List.filter_map
          (fun (j : Apps.job) ->
            match j.outcome with Apps.Done r -> Some (j, r) | _ -> None)
          jobs
      in
      let sim =
        match List.assq_opt app m.makespans with
        | Some { Apps.outcome = Apps.Done r; _ } -> r
        | _ -> failwith (app.name ^ ": no simulator reference run")
      in
      let p = app.name ^ "." in
      let med name f = (p ^ name, percentile (p ^ name) (List.map f ok) 0.5) in
      let count name n = (p ^ name, float_of_int n) in
      List.map
        (fun ((name, v), unit) -> (name, v, unit))
        [
          (count "msgs" (Stats.total_msgs sim.Machine.stats), "count");
          (count "bytes" (Stats.total_bytes sim.Machine.stats), "bytes");
          ((p ^ "sim_makespan_s", sim.Machine.time), "sim_s");
          ( med "host_us_per_msg" (fun ((j : Apps.job), r) ->
                j.wall *. 1e6
                /. float_of_int (max 1 (Stats.total_msgs r.Machine.stats))),
            "us" );
          (med "wall_ms_p50" (fun ((j : Apps.job), _) -> ms j.wall), "ms");
          (med "alloc_mb" (fun (j, _) -> j.Apps.alloc_bytes /. 1048576.), "MB");
          (med "major_gcs" (fun (j, _) -> float_of_int j.Apps.major_gcs), "count");
        ])
    Apps.apps

(* The native engine's layer: its app medians, the share of wall time the
   ranks spent waiting for messages, real message counts, and stalls. *)
let native_metrics jobs =
  List.concat_map
    (fun (app : Apps.app) ->
      let jobs = of_app app jobs in
      let ok =
        List.filter_map
          (fun (j : Apps.job) ->
            match j.outcome with Apps.Done r -> Some r | _ -> None)
          jobs
      in
      let p = "native." ^ app.name in
      let med name f = percentile (p ^ name) (List.map f ok) 0.5 in
      [
        ( p ^ "_ms_p50",
          ms (percentile p (List.map Apps.latency jobs) 0.5),
          "ms" );
        ( p ^ ".wait_share",
          med ".wait_share" (fun r ->
              Stats.avg_comm_wait r.Machine.stats /. r.Machine.time),
          "ratio" );
        ( p ^ ".msgs",
          med ".msgs" (fun r -> float_of_int (Stats.total_msgs r.Machine.stats)),
          "count" );
        ( p ^ ".stalls",
          float_of_int
            (List.length
               (List.filter (fun (j : Apps.job) -> j.outcome = Apps.Stalled) jobs)),
          "count" );
      ])
    Apps.apps

let span_names =
  [ "job"; "engine.run"; "lang.prepare"; "service.job"; "service.replay" ]

let per_layer m spans =
  let selfs = Span.self_times spans in
  let traced = Option.get m.traced in
  lang_metrics m.chains
  @ service_metrics (Option.get m.svc)
  @ app_metrics m
  @ native_metrics m.native
  @ [
      ("sim_makespan_s", sim_makespan m.makespans, "sim_s");
      ("host.calib_apps_ms", ms (calib_apps m), "ms");
      ( "bench.trace_overhead_pct",
        100. *. ((rate m.untraced /. rate traced) -. 1.),
        "%" );
    ]
  @ List.map
      (fun n -> ("span." ^ n ^ ".self_ms", Span.mean_self_ms selfs n, "ms"))
      span_names

(* Run [setup] at least [setup_reps] times and for [setup_min_s] seconds,
   keeping the last result, and give the median time, each rescaled by a
   calibration made right before it. *)
let repeated_setup setup =
  let t_start = Span.now () in
  let rec go times last =
    if List.length times >= setup_reps && Span.now () -. t_start >= setup_min_s
    then (Option.get last, Pstats.median times)
    else begin
      let calib = Calib.time () in
      let t0 = Span.now () in
      let v = setup () in
      go (Calib.scale ~calib (Span.now () -. t0) :: times) (Some v)
    end
  in
  go [] None

let run_workload wl ~seed ~seconds ~trace =
  let rng = Random.State.make [| seed; 0xa995 |] in
  let tracer = if trace then Some (Span.create ()) else None in
  let chains = ref [] in
  (* keep a chain's timings, not its program, so the heap does not grow *)
  let on_chain (c : Apps.chain) =
    chains := (c.phases, c.alloc_bytes) :: !chains
  in
  (* The timed loop: for [seconds] untraced, or with --trace 1 half
     untraced and half traced.  [loop ?tracer deadline] returns its data
     and what it completed in how long; the data kept is the last half's. *)
  let own_loop loop =
    let half ?tracer secs =
      settle ();
      loop ?tracer (Span.now () +. secs)
    in
    match tracer with
    | None ->
        let data, u = half seconds in
        (data, u, None)
    | Some _ ->
        let _, u = half (seconds /. 2.) in
        let data, t = half ?tracer (seconds /. 2.) in
        (data, u, Some t)
  in
  let engine = engine wl in
  let app_loop handles ?tracer deadline =
    let t0 = Span.now () in
    let jobs =
      app_phase ?tracer ~engine ~rng ~tag:"app" ~rounds:min_rounds handles
        deadline
    in
    ( jobs,
      { completed = List.length (List.filter Apps.succeeded jobs);
        elapsed = Span.now () -. t0 } )
  in
  let (handles, warm), setup_s =
    repeated_setup (fun () ->
        let h = prepare engine in
        (h, warm_apps engine h))
  in
  let apps, untraced, traced = own_loop (app_loop handles) in
  Option.iter
    (fun tr -> List.iter on_chain (replay_apps tr engine warm))
    tracer;
  (* Traced runs only, after the apps: the skild mix and then the apps on
     the native engine, for their layers' metrics.  The apps run first:
     the service grows the domain pool, and an idle domain still takes
     part in every stop-the-world minor collection (with one alive,
     matmul's simulator runs took a quarter longer). *)
  let svc, native =
    match tracer with
    | None -> (None, [])
    | Some _ ->
        let s = start_service seed in
        settle ();
        let svc_run, elapsed =
          svc_phase ?tracer ~on_chain s (Span.now () +. (seconds /. 2.))
        in
        Svc.stop s;
        let engine = Apps.Native native_domains in
        let handles = prepare engine in
        ignore (warm_apps engine handles : _ list);
        settle ();
        ( Some (svc_run, elapsed),
          app_phase ?tracer ~engine ~rng ~tag:"native" ~rounds:min_rounds
            handles (Span.now ()) )
  in
  ( { setup_s; untraced; traced; apps; native; makespans = warm; svc;
      chains = List.rev !chains },
    tracer )

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)

let pin () =
  List.iter
    (fun (app : Apps.app) ->
      (* the simulator's settings, with the reference interpreter *)
      let p =
        Spmd.prepare_source ~engine:`Ast (Apps.source app) ~entry:app.entry
      in
      print_endline (Apps.pin_line app (Apps.pin_of_result (Apps.run app p))))
    Apps.apps

let usage =
  "usage: main.exe --workload sim-paper|sim-fused --seed N \
   --seconds S --trace 0|1\n\
  \       main.exe pin"

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline usage;
  exit 2

let parse_args argv =
  let rec go acc = function
    | [] -> acc
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | a :: _ -> die ("unexpected argument " ^ a)
  in
  let kv = go [] argv in
  let get k =
    match List.assoc_opt k kv with Some v -> v | None -> die ("missing --" ^ k)
  in
  let int k =
    match int_of_string_opt (get k) with Some n -> n | None -> die ("bad --" ^ k)
  in
  let wl =
    match List.assoc_opt (get "workload") workloads with
    | Some w -> w
    | None -> die ("unknown workload " ^ get "workload")
  in
  let seconds = int "seconds" in
  if seconds < 1 then die "--seconds must be >= 1";
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> die "bad --trace"
  in
  (get "workload", wl, int "seed", float_of_int seconds, trace)

let main () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "pin" ] -> pin ()
  | argv ->
      let name, wl, seed, seconds, trace = parse_args argv in
      Printf.printf
        "# perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d ocaml=%s \
         native_domains=%d workers=%d clients=%d window=%d\n%!"
        name seed seconds (Bool.to_int trace) nproc Sys.ocaml_version
        native_domains workers clients window;
      let m, tracer = run_workload wl ~seed ~seconds ~trace in
      let metrics =
        match tracer with
        | None -> end_to_end ~rescaled:true m
        | Some tr ->
            let spans = Span.spans tr in
            (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
            let file =
              Printf.sprintf ".perfbench/spans-%s-seed%d.json" name seed
            in
            Span.write_chrome file spans;
            Printf.printf "# %d spans written to %s\n" (List.length spans) file;
            per_layer m spans
      in
      Printf.printf "# calibration ms: %.4f (median), reference %g\n"
        (ms (calib_apps m)) (ms Calib.reference_s);
      Printf.printf "# times as measured: %s\n"
        (String.concat " "
           (List.filter_map
              (fun (name, v, _) ->
                if name = "setup_s" || name = "peak_rss_mb" then None
                else Some (Printf.sprintf "%s=%.6g" name v))
              (end_to_end ~rescaled:false m)));
      Printf.printf "# jobs attempted=%d succeeded=%d failed=%d stalled=%d\n"
        acct.attempted (acct.attempted - acct.failed) acct.failed acct.stalled;
      List.iter
        (fun m -> Printf.printf "# MISMATCH %s\n" m)
        (List.rev acct.mismatches);
      let correct = Acct.correct acct in
      Printf.printf
        "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
        correct acct.attempted acct.failed (json_metrics metrics);
      if not correct then exit 1

let () =
  match main () with
  | () -> exit 0
  | exception e ->
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      exit 1
