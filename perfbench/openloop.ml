(* Open-loop load over keep-alive connections.

   Request i is due at t0 + i / rate and goes out on connection
   i mod conns; a request that falls due while earlier ones are still
   unanswered is pipelined behind them. Latency runs from the due time
   to the arrival of the last response byte, so a stalled server is
   charged for every request scheduled behind the stall, and lateness
   (send time minus due time) shows how far the generator itself fell
   behind. The generator is one thread that sleeps in select until the
   next due time or response. With [in_flight], a due request also waits
   until fewer than that many are unanswered: with every request due at
   once, that is a closed loop keeping [in_flight] requests in flight. *)

type result = {
  latency_ms : float array;  (** per request; infinity when not answered *)
  late_ms : float array;  (** per request: send time minus due time *)
  bad : int;  (** answered with a response that failed [check] *)
  answered : int;
  wall_s : float;  (** first due time to last response *)
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* Index of [needle] in [buf] within [from, upto), or -1. *)
let find buf ~from ~upto needle =
  let nn = String.length needle in
  let rec at i j = j = nn || (Bytes.get buf (i + j) = needle.[j] && at i (j + 1)) in
  let rec go i = if i > upto - nn then -1 else if at i 0 then i else go (i + 1) in
  go from

let content_length buf ~from ~upto =
  match find buf ~from ~upto "\r\ncontent-length: " with
  | -1 -> -1
  | p ->
      let rec digits i acc =
        if i < upto && Bytes.get buf i >= '0' && Bytes.get buf i <= '9' then
          digits (i + 1) ((acc * 10) + Char.code (Bytes.get buf i) - 48)
        else acc
      in
      digits (p + 18) 0

(* [check i buf ~body ~upto] judges the response to request i: the
   status line starts the buffer region and the body spans
   [body, upto). *)
let run ?(in_flight = max_int) ~port ~conns ~rate ~count ~request ~check ~timeout_s () =
  let fds = Array.init conns (fun _ -> connect port) in
  let lat = Array.make count infinity in
  let late = Array.make count 0. in
  let inb = Array.init conns (fun _ -> Bytes.create (1 lsl 20)) in
  let inlen = Array.make conns 0 in
  let answered_on = Array.make conns 0 in
  let answered = ref 0 and bad = ref 0 and failed = ref false in
  let t0 = Proc.now () +. 0.002 in
  let due i = t0 +. (float_of_int i /. rate) in
  let next = ref 0 and t_last = ref t0 in
  let deadline = due count +. timeout_s in
  let outb = Array.init conns (fun _ -> Buffer.create 65536) in
  let consume c tnow =
    let buf = inb.(c) and n = inlen.(c) in
    let rec go off =
      match find buf ~from:off ~upto:n "\r\n\r\n" with
      | -1 -> off
      | he ->
          let cl = content_length buf ~from:off ~upto:he in
          if cl < 0 then begin
            failed := true;
            n
          end
          else if n - (he + 4) < cl then off
          else begin
            let i = c + (answered_on.(c) * conns) in
            answered_on.(c) <- answered_on.(c) + 1;
            incr answered;
            t_last := tnow;
            if i < count then begin
              lat.(i) <- (tnow -. due i) *. 1000.;
              if not (find buf ~from:off ~upto:(off + 13) "HTTP/1.1 200 " = off
                      && check i buf ~body:(he + 4) ~upto:(he + 4 + cl))
              then incr bad
            end;
            go (he + 4 + cl)
          end
    in
    let off = go 0 in
    if off > 0 then begin
      Bytes.blit buf off buf 0 (n - off);
      inlen.(c) <- n - off
    end
  in
  let fd_list = Array.to_list fds in
  let index fd =
    let rec go c = if fds.(c) == fd then c else go (c + 1) in
    go 0
  in
  while !answered < count && not !failed do
    let now = Proc.now () in
    if now > deadline then failed := true
    else begin
      let room () = !next - !answered < in_flight in
      if !next < count && due !next <= now && room () then begin
        while !next < count && due !next <= now && room () do
          Buffer.add_string outb.(!next mod conns) (request !next);
          late.(!next) <- (now -. due !next) *. 1000.;
          incr next
        done;
        Array.iteri
          (fun c b ->
            if Buffer.length b > 0 then begin
              write_all fds.(c) (Buffer.contents b);
              Buffer.clear b
            end)
          outb
      end;
      let timeout =
        if !next >= count || not (room ()) then 0.1
        else Float.max 0. (Float.min 0.1 (due !next -. Proc.now ()))
      in
      match Unix.select fd_list [] [] timeout with
      | rd, _, _ ->
          let tnow = Proc.now () in
          List.iter
            (fun fd ->
              let c = index fd in
              let cap = Bytes.length inb.(c) - inlen.(c) in
              match Unix.read fd inb.(c) inlen.(c) cap with
              | 0 -> failed := true
              | k ->
                  inlen.(c) <- inlen.(c) + k;
                  consume c tnow
              | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()
              | exception Unix.Unix_error _ -> failed := true)
            rd
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done;
  Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds;
  {
    latency_ms = lat;
    late_ms = late;
    bad = !bad;
    answered = !answered;
    wall_s = !t_last -. t0;
  }
