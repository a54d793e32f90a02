type mode = Identity | Sequential

(* Assignments are only ever added, so the two tables are also kept as
   an immutable newest-first log of (real, fake) pairs. A capture holds
   the log pointer; restoring along the same timeline removes just the
   entries added since instead of rebuilding the tables. *)
type t = {
  mode : mode;
  mutable next : int;
  fwd : (int, int) Hashtbl.t;  (* real frame -> fake frame *)
  rev : (int, int) Hashtbl.t;
  mutable log : (int * int) list;  (* every assignment, newest first *)
}

let create mode =
  { mode; next = 0x1000; fwd = Hashtbl.create 64; rev = Hashtbl.create 64;
    log = [] }

let assign t ~real =
  let real = Lz_arm.Bits.align_down real 4096 in
  match t.mode with
  | Identity -> real
  | Sequential -> (
      match Hashtbl.find_opt t.fwd real with
      | Some fake -> fake
      | None ->
          let fake = t.next in
          t.next <- t.next + 4096;
          Hashtbl.add t.fwd real fake;
          Hashtbl.add t.rev fake real;
          t.log <- (real, fake) :: t.log;
          fake)

let real_of_fake t fake =
  match t.mode with
  | Identity -> Some fake
  | Sequential -> Hashtbl.find_opt t.rev (Lz_arm.Bits.align_down fake 4096)

let fake_of_real t real =
  match t.mode with
  | Identity -> Some real
  | Sequential -> Hashtbl.find_opt t.fwd (Lz_arm.Bits.align_down real 4096)

let assigned t =
  match t.mode with Identity -> 0 | Sequential -> Hashtbl.length t.fwd

let clone t =
  { mode = t.mode;
    next = t.next;
    fwd = Hashtbl.copy t.fwd;
    rev = Hashtbl.copy t.rev;
    log = t.log }

type state = { s_next : int; s_log : (int * int) list }

let capture t = { s_next = t.next; s_log = t.log }

(* Each assignment takes the next fake frame, so a log that extends the
   captured one is exactly [(next - s_next) / 4096] entries longer.
   Walk that many: if the walk lands on the captured log itself, undo
   those entries; otherwise the tables belong to another timeline and
   are rebuilt from the captured log. *)
let restore t s =
  let rec added_since l k =
    if k = 0 then l == s.s_log
    else match l with [] -> false | _ :: rest -> added_since rest (k - 1)
  in
  let k = (t.next - s.s_next) / 4096 in
  if k >= 0 && added_since t.log k then begin
    let rec undo l =
      if l != s.s_log then
        match l with
        | (real, fake) :: rest ->
            Hashtbl.remove t.fwd real;
            Hashtbl.remove t.rev fake;
            undo rest
        | [] -> ()
    in
    undo t.log
  end
  else begin
    Hashtbl.clear t.fwd;
    Hashtbl.clear t.rev;
    List.iter
      (fun (real, fake) ->
        Hashtbl.add t.fwd real fake;
        Hashtbl.add t.rev fake real)
      s.s_log
  end;
  t.next <- s.s_next;
  t.log <- s.s_log
