//! Hostile request lines must cost one error reply, never the daemon.
//!
//! A request line of 10⁶ nested `[` used to overflow the stack of the
//! thread parsing it — an abort `catch_unwind` cannot contain, taking
//! the whole process down. The JSON parser now caps nesting depth, so
//! the line gets an ordinary `parse_error` reply and the same
//! connection goes on to answer `stats`. Both transports are covered:
//! `serve_lines` on the caller's thread, and the Unix socket, where a
//! per-connection thread (with a smaller stack than the main thread)
//! does the parsing.

use reqisc_compiler::Compiler;
use reqisc_service::{Json, Service, ServiceConfig};

const NESTING: usize = 1_000_000;

/// A service whose compiler never builds a template library: these
/// tests send no compile requests.
fn service() -> Service {
    let library = reqisc_synthesis::TemplateLibrary::build(&[], &Default::default());
    Service::start_with_compiler(
        Compiler::new_with_library(library),
        ServiceConfig { workers: 1, ..ServiceConfig::default() },
    )
}

fn script() -> String {
    format!("{}\n{{\"id\":2,\"op\":\"stats\"}}\n", "[".repeat(NESTING))
}

/// Asserts the two replies: a parse error for the nested line, then a
/// successful `stats`.
fn assert_error_then_stats(replies: &[Json]) {
    assert_eq!(replies.len(), 2, "one reply per request line");
    assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(replies[0].get("error").and_then(Json::as_str), Some("parse_error"));
    assert_eq!(replies[1].get("id").and_then(Json::as_u64), Some(2));
    assert_eq!(replies[1].get("ok").and_then(Json::as_bool), Some(true), "{}", replies[1].emit());
    assert!(replies[1].get("stats").is_some(), "stats member present");
}

#[test]
fn deeply_nested_line_gets_an_error_reply_over_serve_lines() {
    let service = service();
    let mut out: Vec<u8> = Vec::new();
    let outcome =
        reqisc_service::serve_lines(&service, script().as_bytes(), &mut out).expect("serve");
    assert_eq!(outcome.requests, 2);
    service.shutdown();
    let replies: Vec<Json> = String::from_utf8(out)
        .expect("utf8")
        .lines()
        .map(|l| Json::parse(l).expect("reply parses"))
        .collect();
    assert_error_then_stats(&replies);
}

#[cfg(unix)]
#[test]
fn deeply_nested_line_gets_an_error_reply_over_the_socket() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::time::{Duration, Instant};

    let sock = std::env::temp_dir().join(format!("reqisc-limits-{}.sock", std::process::id()));
    let service = service();
    std::thread::scope(|scope| {
        let service = &service;
        let sock_path = sock.clone();
        let server = scope.spawn(move || reqisc_service::serve_unix(service, &sock_path));
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match UnixStream::connect(&sock) {
                Ok(s) => break s,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                Err(e) => panic!("socket never came up: {e}"),
            }
        };
        (&stream).write_all(script().as_bytes()).expect("write requests");
        let mut reader = BufReader::new(&stream);
        let replies: Vec<Json> = (0..2)
            .map(|_| {
                let mut line = String::new();
                assert!(reader.read_line(&mut line).expect("read reply") > 0, "daemon hung up");
                Json::parse(line.trim_end()).expect("reply parses")
            })
            .collect();
        assert_error_then_stats(&replies);
        writeln!(&stream, "{{\"id\":3,\"op\":\"shutdown\"}}").expect("write shutdown");
        server.join().expect("server thread").expect("serve_unix returns cleanly");
    });
    service.shutdown();
    let _ = std::fs::remove_file(&sock);
}
