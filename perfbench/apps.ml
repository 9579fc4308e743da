(* The three paper applications as Skil source, the engines they run on,
   and the checks every run must pass.  Expected outputs, message counts
   and simulated makespans are pinned in expected.txt; they were produced
   by the AST interpreter ({!pin_line}), never by an engine under test. *)

type app = {
  name : string;
  file : string;  (** under examples/skil *)
  entry : string;
  n : int;
  topology : Topology.t;
}

let apps =
  [
    { name = "shpaths"; file = "shpaths.skil"; entry = "shpaths"; n = 128;
      topology = Topology.torus2d ~width:2 ~height:2 () };
    { name = "gauss"; file = "gauss.skil"; entry = "gauss"; n = 64;
      topology = Topology.mesh ~width:4 ~height:4 };
    { name = "matmul"; file = "matmul.skil"; entry = "matmul"; n = 128;
      topology = Topology.torus2d ~width:4 ~height:4 () };
  ]

let source app =
  In_channel.with_open_bin (Filename.concat "examples/skil" app.file)
    In_channel.input_all

(* The simulator runs the program as written ([`None]) or as the
   skeleton-fusion optimizer rewrote it ([`Fuse]). *)
type engine = Sim of Spmd.optimize | Native of int  (** native domains *)

let spmd_engine = function Sim _ -> `Compiled | Native _ -> `Native
let optimize = function Sim o -> o | Native _ -> `None

let run ?(engine = Sim `None) app prepared =
  let args = [ Value.VInt app.n ] in
  match engine with
  | Sim _ ->
      Spmd.run_prepared ~cost:(Cost_model.make Cost_model.skil)
        ~collectives:Coll_alg.Legacy ~sim_domains:1 ~topology:app.topology
        prepared ~args
  | Native domains ->
      Spmd.run_prepared ~collectives:Coll_alg.Legacy ~native_domains:domains
        ~topology:app.topology prepared ~args

(* Every processor's printed output, framed as `skilc run-par` prints it. *)
let render (r : Spmd.outcome Machine.result) =
  let b = Buffer.create 256 in
  Array.iteri
    (fun i (o : Spmd.outcome) ->
      if o.Spmd.printed <> "" then
        Buffer.add_string b (Printf.sprintf "[proc %d] %s\n" i o.Spmd.printed))
    r.Machine.values;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Pins                                                                 *)

type pin = { output : string; msgs : int; bytes : int; makespan : float }

let pin_of_result r =
  { output = render r; msgs = Stats.total_msgs r.Machine.stats;
    bytes = Stats.total_bytes r.Machine.stats; makespan = r.Machine.time }

let pin_line app p =
  Printf.sprintf "%s %d %d %h %s" app.name p.msgs p.bytes p.makespan
    (Proto.escape p.output)

let parse_pins text =
  String.split_on_char '\n' text
  |> List.filter (fun line -> not (String.starts_with ~prefix:"#" line))
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ name; msgs; bytes; makespan; output ] ->
             let output =
               match Proto.unescape output with
               | Ok s -> s
               | Error e -> failwith ("expected.txt: " ^ e)
             in
             Some
               ( name,
                 { output; msgs = int_of_string msgs;
                   bytes = int_of_string bytes;
                   makespan = float_of_string makespan } )
         | _ -> None)

let pins = lazy (parse_pins Pins.text)

let pin app =
  match List.assoc_opt app.name (Lazy.force pins) with
  | Some p -> p
  | None -> failwith ("expected.txt has no pin for " ^ app.name)

(* ------------------------------------------------------------------ *)
(* One checked run                                                      *)

type outcome =
  | Done of Spmd.outcome Machine.result
  | Stalled  (** a failed job: never retried, kept in the sample *)
  | Failed of string  (** the run raised *)
  | Mismatch of string  (** wrong output or counts *)

(* Any engine's printed output must equal the pinned output; the
   simulator's counts and makespan for the program as written must also
   equal the pins exactly (fusion changes them, by design). *)
let check ~engine app r =
  let p = pin app in
  let got = pin_of_result r in
  if got.output <> p.output then
    Mismatch (Printf.sprintf "%s: printed output differs" app.name)
  else
    match engine with
    | Native _ | Sim `Fuse -> Done r
    | Sim `None ->
        if got.msgs <> p.msgs || got.bytes <> p.bytes
           || got.makespan <> p.makespan
        then
          Mismatch
            (Printf.sprintf
               "%s: msgs/bytes/makespan %d/%d/%h, pinned %d/%d/%h" app.name
               got.msgs got.bytes got.makespan p.msgs p.bytes p.makespan)
        else Done r

type job = {
  app : app;
  wall : float;  (** seconds in Spmd.run_prepared *)
  outcome : outcome;
  alloc_bytes : float;  (** allocated by the calling domain during the run *)
  major_gcs : int;
  calib : float;
      (** {!Calib.time} measured right before the job; by default
          {!Calib.reference_s}, which leaves the job's time unscaled *)
}

(* Run one job, timing only [run], the call into the engine.  With a
   tracer the job is a "job" span around an "engine.run" span.  A stall is
   a failed job: it is not retried. *)
let timed_job ?tracer ?(calib = Calib.reference_s) ~jobid ~check app run =
  Span.with_span tracer ~parent:0 ~name:"job" ~job:jobid (fun parent ->
      let g0 = (Gc.quick_stat ()).Gc.major_collections in
      let a0 = Gc.allocated_bytes () in
      let t0 = Span.now () in
      let res =
        Span.with_span tracer ~parent ~name:"engine.run" ~job:jobid (fun _ ->
            match run () with r -> Ok r | exception e -> Error e)
      in
      let wall = Span.now () -. t0 in
      let alloc_bytes = Gc.allocated_bytes () -. a0 in
      let major_gcs = (Gc.quick_stat ()).Gc.major_collections - g0 in
      let outcome =
        match res with
        | Ok r -> check r
        | Error (Machine.Stalled _) -> Stalled
        | Error e -> Failed (Printexc.to_string e)
      in
      { app; wall; outcome; alloc_bytes; major_gcs; calib })

let run_checked ?tracer ?calib ?(engine = Sim `None) ~jobid app prepared =
  timed_job ?tracer ?calib ~jobid ~check:(check ~engine app) app (fun () ->
      run ~engine app prepared)

let succeeded j = match j.outcome with Done _ -> true | _ -> false

(* A job's latency sample: a failed job counts as missing every limit. *)
let latency j = if succeeded j then j.wall else infinity

(* The latency rescaled to the reference host speed (see {!Calib}). *)
let scaled_latency j = Calib.scale ~calib:j.calib (latency j)

(* ------------------------------------------------------------------ *)
(* The translation chain, replayed phase by phase                       *)

type chain = {
  program : Ast.program;
  tyenv : Typecheck.env;
  compiled : Compile.t;
  phases : (string * float) list;  (** layer name, seconds; in call order *)
  alloc_bytes : float;
}

(* Parse, typecheck, instantiate, optimize and compile [src] in the order
   Spmd.prepare calls them, timing each call and recording it as a span
   under a "lang.prepare" span. *)
let replay ?tracer ~parent ~job ~optimize ~entry src =
  let phases = ref [] in
  let a0 = Gc.allocated_bytes () in
  let chain =
    Span.with_span tracer ~parent ~name:"lang.prepare" ~job (fun parent ->
        let timed name f =
          let t0 = Span.now () in
          let v = Span.with_span tracer ~parent ~name ~job (fun _ -> f ()) in
          phases := (name, Span.now () -. t0) :: !phases;
          v
        in
        let program = timed "lang.parse" (fun () -> Parser.parse src) in
        let tyenv = timed "lang.typecheck" (fun () -> Typecheck.check program) in
        let program =
          timed "lang.instantiate" (fun () ->
              Instantiate.program tyenv program ~entries:[ entry ])
        in
        let tyenv = timed "lang.typecheck" (fun () -> Typecheck.check program) in
        let program, tyenv =
          if optimize then
            let p =
              timed "lang.optimize" (fun () -> Optimize.program ~env:tyenv program)
            in
            (p, timed "lang.typecheck" (fun () -> Typecheck.check p))
          else (program, tyenv)
        in
        let compiled =
          timed "lang.compile" (fun () ->
              Compile.program ~tyenv ~specialize:true program)
        in
        (program, tyenv, compiled))
  in
  let program, tyenv, compiled = chain in
  { program; tyenv; compiled; phases = List.rev !phases;
    alloc_bytes = Gc.allocated_bytes () -. a0 }

(* Run a replayed chain on the simulator the way Spmd.run_prepared runs a
   compiled handle, so its output can be compared with the handle's. *)
let run_replayed ?(cost = Cost_model.make Cost_model.skil) ~topology c ~entry
    ~args =
  Machine.run ~cost ~collectives:Coll_alg.Legacy ~sim_domains:1 ~topology
    (fun ctx ->
      let st = Interp.make ~backend:(`Par ctx) ~tyenv:c.tyenv c.program in
      let value = Compile.call c.compiled st entry args in
      { Spmd.value; printed = Interp.output st })
