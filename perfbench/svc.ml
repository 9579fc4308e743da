(* The skild side of the benchmark: a {!Service} fed through
   {!Service.serve} over in-process connections by closed-loop clients,
   each keeping a bounded window of jobs in flight. *)

let topology = Jobspec.topology Jobspec.default

type t = {
  service : Service.t;
  stream : Gen.stream;
  hot : (int * Spmd.prepared) list;
      (** hot-set tag -> handle, for timing a hit's run directly *)
}

let config ~workers = { Service.default_config with Service.workers }

let start ~workers stream =
  let service = Service.create ~config:(config ~workers) () in
  let hot =
    Array.to_list stream.Gen.hot
    |> List.map (fun (j : Gen.job) ->
           (j.prog.tag, Spmd.prepare_source j.src ~entry:"main"))
  in
  { service; stream; hot }

let stop t = Service.shutdown t.service

(* ------------------------------------------------------------------ *)
(* Connections                                                          *)

(* A client connection is a kernel pipe: {!Service.serve} reads its
   requests through a channel exactly as skild reads a socket, so the wire
   protocol's framing stays on the measured path.  Replies are queued with
   their arrival time. *)
type conn = {
  req : out_channel;
  server : Thread.t;
  mu : Mutex.t;
  cv : Condition.t;
  replies : (float * string) Queue.t;  (** arrival time, reply line *)
}

let connect t =
  let r, w = Unix.pipe ~cloexec:true () in
  let ic = Unix.in_channel_of_descr r in
  let mu = Mutex.create () and cv = Condition.create () in
  let replies = Queue.create () in
  let write line =
    let at = Span.now () in
    Mutex.protect mu (fun () ->
        Queue.push (at, line) replies;
        Condition.signal cv)
  in
  let server =
    Thread.create
      (fun () ->
        Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
            Service.serve t.service
              ~read_line:(fun () -> In_channel.input_line ic)
              ~read_exact:(In_channel.really_input_string ic)
              ~write))
      ()
  in
  { req = Unix.out_channel_of_descr w; server; mu; cv; replies }

let send conn ~id (job : Gen.job) =
  let spec =
    { Jobspec.default with
      Jobspec.id;
      optimize = (if job.fuse then `Fuse else `None);
      src_bytes = String.length job.src }
  in
  Printf.fprintf conn.req "%s\n%s\n%!"
    (Proto.render_job_header (Jobspec.to_kv spec))
    job.src

let next_reply conn =
  Mutex.protect conn.mu (fun () ->
      while Queue.is_empty conn.replies do
        Condition.wait conn.cv conn.mu
      done;
      Queue.pop conn.replies)

let close conn =
  output_string conn.req "QUIT\n";
  close_out conn.req;
  Thread.join conn.server

(* ------------------------------------------------------------------ *)
(* Replies                                                              *)

type verdict = Ok_job | Failed of string | Mismatch of string

let expected_output (job : Gen.job) = Printf.sprintf "[proc 0] %d\n" job.value

let check (job : Gen.job) line =
  match Proto.parse_reply line with
  | Error e -> Mismatch ("unparseable reply: " ^ e)
  | Ok (Proto.Err_reply { cls; msg; _ }) -> Failed (Errclass.name cls ^ ": " ^ msg)
  | Ok (Proto.Ok_reply r) ->
      if r.value <> string_of_int job.value || r.output <> expected_output job
      then
        Mismatch
          (Printf.sprintf "job %d: value %s, expected %d" job.index r.value
             job.value)
      else if r.cache_hit <> (job.kind = Gen.Hit) then
        Mismatch (Printf.sprintf "job %d: unexpected cache outcome" job.index)
      else Ok_job

let reply_id line =
  match Proto.parse_reply line with
  | Ok (Proto.Ok_reply { id; _ }) | Ok (Proto.Err_reply { id; _ }) -> id
  | Error _ -> ""

(* ------------------------------------------------------------------ *)
(* Closed-loop phase                                                    *)

type result = {
  index : int;  (** the job's index in the stream *)
  kind : Gen.kind;
  latency : float;  (** seconds, submit to reply; infinite when failed *)
  verdict : verdict;
  direct : float option;
      (** traced runs: directly timed prepare (misses) + run of the job *)
}

(* Jobs needed so each kind has enough samples for its p90. *)
let min_jobs =
  let misses = Gen.block - Gen.hits_per_block in
  let blocks = (Pstats.needed 0.9 + misses - 1) / misses in
  Gen.block * blocks

(* Draw the next job index.  Past the deadline (and [min_jobs]) the
   counter may only stop on a block boundary, so every phase holds whole
   blocks of the mix. *)
let take counter deadline =
  let rec go () =
    let i = Atomic.get counter in
    if i mod Gen.block = 0 && i >= min_jobs && Span.now () >= deadline then None
    else if Atomic.compare_and_set counter i (i + 1) then Some i
    else go ()
  in
  go ()

(* Run the closed loop until [deadline], and for at least [min_jobs] jobs,
   with [clients] connections of [window] jobs each.  With a tracer each job's submit-to-reply time is
   recorded as a "service.job" span; nothing else is done while the loop
   runs, so the traced loop differs from the untraced one only by the
   span records. *)
let phase ?tracer t ~clients ~window ~first ~deadline =
  let counter = Atomic.make 0 in
  let mu = Mutex.create () in
  let results = ref [] in
  let record r = Mutex.protect mu (fun () -> results := r :: !results) in
  let client () =
    let conn = connect t in
    let inflight = Hashtbl.create 8 in
    let rec fill () =
      if Hashtbl.length inflight < window then
        match take counter deadline with
        | None -> ()
        | Some i ->
            let job = Gen.job t.stream (first + i) in
            let id = string_of_int job.index in
            Hashtbl.replace inflight id (job, Span.now ());
            send conn ~id job;
            fill ()
    in
    let rec loop () =
      fill ();
      if Hashtbl.length inflight > 0 then begin
        let at, line = next_reply conn in
        let id = reply_id line in
        match Hashtbl.find_opt inflight id with
        | None ->
            (* the reply stream is out of step: fail every job in flight
               and stop this client *)
            Hashtbl.iter
              (fun _ (job, _) ->
                record
                  { index = job.Gen.index; kind = job.kind; latency = infinity;
                    verdict = Mismatch ("reply for no job in flight: " ^ line);
                    direct = None })
              inflight
        | Some (job, sent) ->
            Hashtbl.remove inflight id;
            let verdict = check job line in
            Option.iter
              (fun tr ->
                Span.add tr ~parent:0 ~name:"service.job" ~job:("svc-" ^ id)
                  ~t0:sent ~t1:at)
              tracer;
            let latency = if verdict = Ok_job then at -. sent else infinity in
            record
              { index = job.index; kind = job.kind; latency; verdict;
                direct = None };
            loop ()
      end
    in
    Fun.protect ~finally:(fun () -> close conn) loop
  in
  let threads = List.init clients (fun _ -> Thread.create client ()) in
  List.iter Thread.join threads;
  List.rev !results

(* After a traced phase: time each answered job's prepare (misses) and run
   directly, outside the service, one at a time, and check that the
   replayed translation chain prints what the service replied (which
   [check] found equal to the expected output).  [on_chain] receives every
   replayed chain. *)
let replay t tracer ~on_chain (r : result) =
  if r.verdict <> Ok_job then r
  else
    let job = Gen.job t.stream r.index in
    let jobid = "svc-" ^ string_of_int job.index in
    Span.with_span (Some tracer) ~parent:0 ~name:"service.replay" ~job:jobid
      (fun parent ->
        let timed_run f =
          let t0 = Span.now () in
          let v =
            Span.with_span (Some tracer) ~parent ~name:"engine.run" ~job:jobid
              (fun _ -> f ())
          in
          (v, Span.now () -. t0)
        in
        match job.kind with
        | Gen.Hit ->
            let p = List.assoc job.prog.tag t.hot in
            let _, run =
              timed_run (fun () ->
                  Spmd.run_prepared ~cost:(Cost_model.make Cost_model.skil)
                    ~collectives:Coll_alg.Legacy ~sim_domains:1 ~topology p
                    ~args:[])
            in
            { r with direct = Some run }
        | Gen.Miss ->
            let c =
              Apps.replay ~tracer ~parent ~job:jobid ~optimize:job.fuse
                ~entry:"main" job.src
            in
            on_chain c;
            let out, run =
              timed_run (fun () ->
                  Apps.run_replayed ~topology c ~entry:"main" ~args:[])
            in
            let prep = List.fold_left (fun a (_, s) -> a +. s) 0. c.phases in
            if Apps.render out <> expected_output job then
              { r with
                verdict =
                  Mismatch
                    (Printf.sprintf "job %d: replayed chain output differs"
                       job.index) }
            else { r with direct = Some (prep +. run) })

(* Submit every hot program once (filling the cache) and [misses] warm-up
   misses, checking each reply. *)
let warm t ~misses =
  let jobs =
    Array.to_list t.stream.Gen.hot
    @ List.init misses (fun _ -> Gen.warm_miss t.stream)
  in
  let conn = connect t in
  Fun.protect ~finally:(fun () -> close conn) (fun () ->
      List.iteri
        (fun k (job : Gen.job) ->
          let id = "warm" ^ string_of_int k in
          send conn ~id job;
          let _, line = next_reply conn in
          let job = { job with Gen.kind = Gen.Miss } in
          match check job line with
          | Ok_job -> ()
          | Failed m | Mismatch m -> failwith ("warm-up job failed: " ^ m))
        jobs)
