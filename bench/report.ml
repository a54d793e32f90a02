(* Bench reports: the one JSON format the bench programs write, and
   the one baseline check they share.

   A report is a stamp (bench, smoke or full mode, build profile, host
   cpus, OCaml version, git revision) and named rows of metrics. Each
   metric carries a tag that says how a baseline compares it:
   - [Higher]: host speed; fails more than [slack] below the baseline;
   - [Exact]: simulated results; fails on any difference;
   - [Info]: recorded, never compared.
   A fuzz report also carries its coverage keys: losing a baseline key
   fails, gaining one does not.

   A smoke run writes BENCH_<bench>.smoke.json and a full run
   BENCH_<bench>.json, and [--check] compares against the committed
   file of the run's own mode. A baseline from another build profile
   fails the check, since its host speeds say nothing about this
   build; one from another mode, and rows or metrics the baseline
   lacks, are skipped with a printed line. Benches pass their absolute
   requirements to [finish], which reports them with the baseline
   failures and exits 1 if there are any. *)

type json =
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

type tag = Higher | Exact | Info
type metric = { name : string; tag : tag; value : json }
type row = { row : string; metrics : metric list }

type t = {
  bench : string;
  mode : string;  (** ["smoke"] or ["full"] *)
  build_profile : string;
  host_cpus : int;
  ocaml : string;
  git_rev : string;
  rows : row list;
  keys : string list;  (** coverage keys, sorted; [] outside fuzz *)
}

(* The fraction below its baseline at which a [Higher] metric fails. *)
let slack = 0.20

let row row metrics = { row; metrics }
let int tag name v = { name; tag; value = Int v }

(* Rounded to [dp] decimals on creation, so the value in memory is the
   one the file holds and [Exact] compares what a re-read would see.
   JSON has no nan or infinity; they are recorded as 0. *)
let float ?(dp = 3) tag name x =
  let x = if Float.is_finite x then x else 0. in
  { name; tag; value = Float (float_of_string (Printf.sprintf "%.*f" dp x)) }

let make ~bench ~smoke ?(keys = []) rows =
  {
    bench;
    mode = (if smoke then "smoke" else "full");
    build_profile = Build_profile.name;
    host_cpus = Domain.recommended_domain_count ();
    ocaml = Sys.ocaml_version;
    git_rev = Hostbench.Bench.git_rev ();
    rows;
    keys;
  }

let file t =
  if t.mode = "smoke" then Printf.sprintf "BENCH_%s.smoke.json" t.bench
  else Printf.sprintf "BENCH_%s.json" t.bench

(* ------------------------------------------------------------------ *)
(* JSON text *)

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c -> Buffer.add_char b '\\'; Buffer.add_char b c
      | c when c < ' ' -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* The shortest text that reads back as [x], with a point so that it
   reads back as a float. *)
let float_text x =
  let s =
    List.find
      (fun s -> float_of_string s = x)
      [ Printf.sprintf "%.15g" x; Printf.sprintf "%.16g" x;
        Printf.sprintf "%.17g" x ]
  in
  if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let rec flat = function
  | Int i -> string_of_int i
  | Float x -> float_text x
  | Str s -> quote s
  | Arr [] -> "[]"
  | Obj [] -> "{}"
  | Arr l -> "[ " ^ String.concat ", " (List.map flat l) ^ " ]"
  | Obj kv ->
      "{ "
      ^ String.concat ", " (List.map (fun (k, v) -> quote k ^ ": " ^ flat v) kv)
      ^ " }"

(* An array or object that does not fit on its line from column [col]
   puts one element per line, indented past [ind]. *)
let rec show ind col j =
  let one = flat j in
  let block o c items =
    o ^ "\n" ^ String.concat ",\n" items ^ "\n" ^ String.make ind ' ' ^ c
  in
  let pad = String.make (ind + 2) ' ' in
  match j with
  | _ when col + String.length one <= 78 -> one
  | Arr l ->
      block "[" "]" (List.map (fun v -> pad ^ show (ind + 2) (ind + 2) v) l)
  | Obj kv ->
      block "{" "}"
        (List.map
           (fun (k, v) ->
             let p = pad ^ quote k ^ ": " in
             p ^ show (ind + 2) (String.length p) v)
           kv)
  | _ -> one

let parse s =
  let n = String.length s and i = ref 0 in
  let fail what = failwith (Printf.sprintf "JSON %s at byte %d" what !i) in
  let rec peek () =
    if !i >= n then fail "ends early"
    else if String.contains " \t\r\n" s.[!i] then (incr i; peek ())
    else s.[!i]
  in
  let eat c =
    if peek () = c then incr i else fail (Printf.sprintf "lacks '%c'" c)
  in
  let next () =
    if !i < n then (incr i; s.[!i - 1]) else fail "ends in a string"
  in
  let string () =
    eat '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' ->
          (match next () with
          | 'u' when !i + 4 <= n ->
              (match int_of_string_opt ("0x" ^ String.sub s !i 4) with
              | Some c when c < 0x80 -> Buffer.add_char b (Char.chr c)
              | _ -> fail "has an unsupported \\u escape");
              i := !i + 4
          | ('"' | '\\') as c -> Buffer.add_char b c
          | _ -> fail "has a bad escape");
          go ()
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let rec items : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    if peek () = close then (incr i; [])
    else
      let x = item () in
      match peek () with
      | ',' -> incr i; x :: items close item
      | c when c = close -> incr i; [ x ]
      | _ -> fail "lacks ',' or a closing bracket"
  and value () =
    match peek () with
    | '{' ->
        incr i;
        Obj (items '}' (fun () -> let k = string () in eat ':'; (k, value ())))
    | '[' -> incr i; Arr (items ']' value)
    | '"' -> Str (string ())
    | _ -> (
        let j = !i in
        while !i < n && String.contains "+-.0123456789eE" s.[!i] do
          incr i
        done;
        let t = String.sub s j (!i - j) in
        match (int_of_string_opt t, float_of_string_opt t) with
        | Some k, _ -> Int k
        | None, Some x when t <> "" -> Float x
        | _ -> fail "lacks a value")
  in
  let v = value () in
  if !i < n && String.trim (String.sub s !i (n - !i)) <> "" then
    fail "has trailing bytes";
  v

(* ------------------------------------------------------------------ *)
(* Reports as JSON *)

let tags = [ (Higher, "higher"); (Exact, "exact"); (Info, "info") ]

let to_string t =
  let row r =
    Obj
      (("row", Str r.row)
      :: List.filter_map
           (fun (tag, group) ->
             match List.filter (fun m -> m.tag = tag) r.metrics with
             | [] -> None
             | ms ->
                 Some (group, Obj (List.map (fun m -> (m.name, m.value)) ms)))
           tags)
  in
  show 0 0
    (Obj
       ([ ("bench", Str t.bench); ("mode", Str t.mode);
          ("build_profile", Str t.build_profile);
          ("host_cpus", Int t.host_cpus); ("ocaml", Str t.ocaml);
          ("git_rev", Str t.git_rev); ("rows", Arr (List.map row t.rows)) ]
       @
       if t.keys = [] then []
       else [ ("keys", Arr (List.map (fun k -> Str k) t.keys)) ]))
  ^ "\n"

let of_string s =
  let bad what = failwith ("report: " ^ what) in
  let obj = function Obj kv -> kv | _ -> bad "expected an object" in
  let arr = function Arr l -> l | _ -> bad "expected an array" in
  let str = function Str s -> s | _ -> bad "expected a string" in
  let field kv k =
    match List.assoc_opt k kv with Some v -> v | None -> bad ("no " ^ k)
  in
  let metric tag (name, value) =
    match value with
    | Int _ | Float _ -> { name; tag; value }
    | _ -> bad (name ^ " is not a number")
  in
  let row j =
    let kv = obj j in
    {
      row = str (field kv "row");
      metrics =
        List.concat_map
          (fun (tag, group) ->
            match List.assoc_opt group kv with
            | Some ms -> List.map (metric tag) (obj ms)
            | None -> [])
          tags;
    }
  in
  let kv = obj (parse s) in
  let s k = str (field kv k) in
  {
    bench = s "bench";
    mode = s "mode";
    build_profile = s "build_profile";
    host_cpus =
      (match field kv "host_cpus" with
      | Int n -> n
      | _ -> bad "host_cpus is not an integer");
    ocaml = s "ocaml";
    git_rev = s "git_rev";
    rows = List.map row (arr (field kv "rows"));
    keys =
      (match List.assoc_opt "keys" kv with
      | Some l -> List.map str (arr l)
      | None -> []);
  }

let read path = of_string (In_channel.with_open_bin path In_channel.input_all)

let write path t =
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_string t))

(* ------------------------------------------------------------------ *)
(* The baseline check *)

let number = function Int i -> float_of_int i | Float x -> x | _ -> nan

(* [need ok fmt ...] is the requirement's failure message, unless [ok]. *)
let need ok fmt = Printf.ksprintf (fun s -> if ok then [] else [ s ]) fmt

(* [t] against [baseline]: the failures, and the lines to print. *)
let check ~baseline:b t =
  if b.build_profile <> t.build_profile then
    ( [ Printf.sprintf
          "baseline was built in the %s profile, this binary in %s: its \
           numbers are not comparable"
          b.build_profile t.build_profile ],
      [] )
  else if b.mode <> t.mode then
    ( [],
      [ Printf.sprintf
          "baseline is a %s run, this is %s: baseline check skipped" b.mode
          t.mode ] )
  else
    let one r m =
      let base =
        Option.bind
          (List.find_opt (fun br -> br.row = r.row) b.rows)
          (fun br -> List.find_opt (fun bm -> bm.name = m.name) br.metrics)
      in
      match (m.tag, base) with
      | Info, _ -> None
      | _, None ->
          Some
            (Either.Right
               (Printf.sprintf "%s %s not in baseline, skipped" r.row m.name))
      | Higher, Some bm ->
          let now = number m.value and was = number bm.value in
          let line =
            Printf.sprintf "%s %s %s vs baseline %s (%+.1f%%)" r.row m.name
              (flat m.value) (flat bm.value) (100. *. ((now /. was) -. 1.))
          in
          if now >= (1. -. slack) *. was then Some (Either.Right line)
          else
            Some
              (Either.Left
                 (Printf.sprintf "%s: more than %.0f%% below" line
                    (100. *. slack)))
      | Exact, Some bm when bm.value <> m.value ->
          Some
            (Either.Left
               (Printf.sprintf
                  "%s %s is %s, baseline %s (simulated results must not move)"
                  r.row m.name (flat m.value) (flat bm.value)))
      | Exact, Some _ -> None
    in
    let fails, notes =
      List.partition_map Fun.id
        (List.concat_map (fun r -> List.filter_map (one r) r.metrics) t.rows)
    in
    let lost = List.filter (fun k -> not (List.mem k t.keys)) b.keys in
    ( fails
      @ need (lost = []) "%d baseline coverage key(s) lost: %s"
          (List.length lost) (String.concat "; " lost),
      notes
      @
      if b.keys = [] || lost <> [] then []
      else
        [ Printf.sprintf "all %d baseline coverage keys hit"
            (List.length b.keys) ] )

(* ------------------------------------------------------------------ *)
(* Running a bench *)

(* The flags: [--smoke], and [--check] where [check] allows it. Any
   other argument is an error. *)
let flags ?(check = false) bench =
  let known = "--smoke" :: (if check then [ "--check" ] else []) in
  let args = List.tl (Array.to_list Sys.argv) in
  List.iter
    (fun a ->
      if not (List.mem a known) then begin
        Printf.eprintf "%s: unknown argument %S (takes %s)\n" bench a
          (String.concat ", " known);
        exit 2
      end)
    args;
  (List.mem "--smoke" args, List.mem "--check" args)

(* Compare against the baseline when [check] (before overwriting it),
   write the report, and exit 1 on any failure: the baseline's or one
   of the bench's [failures]. *)
let finish ?check:(wanted = false) t failures =
  let say s = Printf.printf "%s: %s\n%!" t.bench s in
  let path = file t in
  let base_fails =
    if not wanted then []
    else if not (Sys.file_exists path) then (
      say ("no baseline " ^ path ^ " yet: baseline check skipped");
      [])
    else
      match read path with
      | exception (Failure e | Sys_error e) ->
          [ Printf.sprintf "baseline %s unreadable: %s" path e ]
      | baseline ->
          let fails, notes = check ~baseline t in
          List.iter say notes;
          if fails = [] then say ("baseline check ok against " ^ path);
          fails
  in
  write path t;
  say ("wrote " ^ path);
  match base_fails @ failures with
  | [] -> ()
  | fs ->
      List.iter (Printf.eprintf "%s: FAIL: %s\n" t.bench) fs;
      exit 1
