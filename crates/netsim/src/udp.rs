//! Real UDP transport.
//!
//! The protocol crates are transport-agnostic; this module lets the same
//! services answer on an actual `UdpSocket`, demonstrating that the
//! simulated network is a stand-in, not a shortcut. One thread per server,
//! blocking client with timeout — the 1988 deployment model.

use crate::rpc::Service;
use crate::{Endpoint, Ipv4, NetError, Packet};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A UDP server wrapping a [`Service`]. Dropping the handle stops it.
pub struct UdpServer {
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    /// The actual bound address (useful with port 0).
    pub local_addr: SocketAddr,
}

impl UdpServer {
    /// Bind `addr` (e.g. `127.0.0.1:0`) and serve datagrams on a thread.
    pub fn spawn(addr: &str, mut svc: impl Service + 'static) -> Result<Self, NetError> {
        let socket = UdpSocket::bind(addr).map_err(NetError::io)?;
        let local_addr = socket.local_addr().map_err(NetError::io)?;
        socket
            .set_read_timeout(Some(Duration::from_millis(50)))
            .map_err(NetError::io)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&shutdown);
        let dst = endpoint_of(local_addr);
        let handle = std::thread::spawn(move || {
            let mut buf = vec![0u8; 65_536];
            while !stop.load(Ordering::SeqCst) {
                match socket.recv_from(&mut buf) {
                    Ok((n, peer)) => {
                        let packet = Packet {
                            src: endpoint_of(peer),
                            dst,
                            payload: buf[..n].to_vec(),
                            id: 0,
                            trace: None,
                            spoofed: false,
                        };
                        if let Some(reply) = svc.handle(&packet) {
                            let _ = socket.send_to(&reply, peer);
                        }
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        continue
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(UdpServer { shutdown, handle: Some(handle), local_addr })
    }
}

impl Drop for UdpServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The [`Endpoint`] a real socket address appears as in a [`Packet`]
/// (IPv6 peers read as `0.0.0.0`).
pub fn endpoint_of(addr: SocketAddr) -> Endpoint {
    let ip = match addr.ip() {
        std::net::IpAddr::V4(v4) => Ipv4(v4.octets()),
        std::net::IpAddr::V6(_) => Ipv4([0, 0, 0, 0]),
    };
    Endpoint { addr: ip, port: addr.port() }
}

/// One blocking UDP request/response with retries (clients retransmit on
/// loss, as the V4 library did).
pub fn udp_request(dst: SocketAddr, payload: &[u8], timeout: Duration, retries: u32) -> Result<Vec<u8>, NetError> {
    let socket = UdpSocket::bind("127.0.0.1:0").map_err(NetError::io)?;
    socket.set_read_timeout(Some(timeout)).map_err(NetError::io)?;
    let mut buf = vec![0u8; 65_536];
    for _ in 0..=retries {
        socket.send_to(payload, dst).map_err(NetError::io)?;
        match socket.recv_from(&mut buf) {
            Ok((n, _)) => return Ok(buf[..n].to_vec()),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) => return Err(NetError::io(e)),
        }
    }
    Err(NetError::Timeout)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udp_echo_round_trip() {
        let server = UdpServer::spawn("127.0.0.1:0", |req: &Packet| {
            let mut out = b"udp:".to_vec();
            out.extend_from_slice(&req.payload);
            Some(out)
        })
        .unwrap();
        let reply =
            udp_request(server.local_addr, b"ping", Duration::from_millis(500), 2).unwrap();
        assert_eq!(reply, b"udp:ping");
    }

    #[test]
    fn udp_timeout_on_silent_server() {
        let server = UdpServer::spawn("127.0.0.1:0", |_: &Packet| None::<Vec<u8>>).unwrap();
        let err = udp_request(server.local_addr, b"ping", Duration::from_millis(60), 1);
        assert!(matches!(err, Err(NetError::Timeout)));
    }
}
