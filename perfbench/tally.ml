(* The traced run's counting sink: folds the obs event stream of every
   simulated system of a pass into per-layer counters and exact latency
   histograms. One pattern match per event; nothing is retained per
   event, so a paper sweep's tens of millions of events fit. *)

module Event = M3_obs.Event

type t = {
  mutable events : int;
  (* dtu *)
  mutable sends : int;
  mutable replies : int;
  mutable receives : int;
  mutable drops : int;
  mutable nacks : int;
  mutable retries : int;
  (* mem *)
  mutable dma_read_bytes : int;
  mutable dma_write_bytes : int;
  (* noc *)
  link_queued : Hist.t;
  (* kernel *)
  syscall : Hist.t;
  mutable syscall_failed : int;
  mutable vpes_created : int;
  (* m3fs *)
  fs_op : Hist.t;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_invals : int;
  mutable inval_sends : int;
  (* pipe *)
  mutable pipe_pushes : int;
  mutable pipe_bytes : int;
}

let create () =
  {
    events = 0;
    sends = 0;
    replies = 0;
    receives = 0;
    drops = 0;
    nacks = 0;
    retries = 0;
    dma_read_bytes = 0;
    dma_write_bytes = 0;
    link_queued = Hist.create ();
    syscall = Hist.create ();
    syscall_failed = 0;
    vpes_created = 0;
    fs_op = Hist.create ();
    cache_hits = 0;
    cache_misses = 0;
    cache_invals = 0;
    inval_sends = 0;
    pipe_pushes = 0;
    pipe_bytes = 0;
  }

let record t ~at:_ (ev : Event.t) =
  t.events <- t.events + 1;
  match ev with
  | Dtu_send { reply = false; _ } -> t.sends <- t.sends + 1
  | Dtu_send { reply = true; _ } -> t.replies <- t.replies + 1
  | Dtu_receive _ -> t.receives <- t.receives + 1
  | Dtu_drop _ -> t.drops <- t.drops + 1
  | Dtu_nack _ -> t.nacks <- t.nacks + 1
  | Dtu_retry _ -> t.retries <- t.retries + 1
  | Dtu_read { bytes; _ } -> t.dma_read_bytes <- t.dma_read_bytes + bytes
  | Dtu_write { bytes; _ } -> t.dma_write_bytes <- t.dma_write_bytes + bytes
  | Noc_link { queued; _ } -> Hist.add t.link_queued queued
  | Syscall_exit { ok; cycles; _ } ->
    Hist.add t.syscall cycles;
    if not ok then t.syscall_failed <- t.syscall_failed + 1
  | Vpe_create _ -> t.vpes_created <- t.vpes_created + 1
  | Fs_response { cycles; _ } -> Hist.add t.fs_op cycles
  | Fs_cache_hit _ -> t.cache_hits <- t.cache_hits + 1
  | Fs_cache_miss _ -> t.cache_misses <- t.cache_misses + 1
  | Fs_cache_inval _ -> t.cache_invals <- t.cache_invals + 1
  | Fs_inval_send _ -> t.inval_sends <- t.inval_sends + 1
  | Pipe_push { bytes; _ } ->
    t.pipe_pushes <- t.pipe_pushes + 1;
    t.pipe_bytes <- t.pipe_bytes + bytes
  | _ -> ()

let sink t = { M3_obs.Obs.sink_name = "perfbench"; sink_emit = record t }

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* The per-layer metrics this sink measures, by declared name. *)
let metrics t =
  let f = float_of_int in
  let pct h p = f (Hist.percentile h p) in
  [
    ("dtu.sends", f t.sends);
    ("dtu.replies", f t.replies);
    ("dtu.receives", f t.receives);
    ("dtu.drops", f t.drops);
    ("dtu.nacks", f t.nacks);
    ("dtu.retries", f t.retries);
    ("dtu.delivered_ratio", ratio t.receives (t.sends + t.replies));
    ("mem.dma_read_bytes", f t.dma_read_bytes);
    ("mem.dma_write_bytes", f t.dma_write_bytes);
    ("noc.link_queued_cycles", f (Hist.sum t.link_queued));
    ("noc.link_queued_p99_cycles", pct t.link_queued 99.0);
    ("kernel.syscalls", f (Hist.count t.syscall));
    ("kernel.syscall_failed", f t.syscall_failed);
    ("kernel.syscall_p50_cycles", pct t.syscall 50.0);
    ("kernel.syscall_p99_cycles", pct t.syscall 99.0);
    ("kernel.vpes_created", f t.vpes_created);
    ("m3fs.requests", f (Hist.count t.fs_op));
    ("m3fs.op_p50_cycles", pct t.fs_op 50.0);
    ("m3fs.op_p99_cycles", pct t.fs_op 99.0);
    ("m3fs.cache_hits", f t.cache_hits);
    ("m3fs.cache_misses", f t.cache_misses);
    ("m3fs.cache_hit_ratio", ratio t.cache_hits (t.cache_hits + t.cache_misses));
    ("m3fs.cache_invals", f t.cache_invals);
    ("m3fs.inval_sends", f t.inval_sends);
    ("pipe.pushes", f t.pipe_pushes);
    ("pipe.bytes", f t.pipe_bytes);
    ("obs.events", f t.events);
  ]
