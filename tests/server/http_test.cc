// HttpRequestParser / response serialization unit tests: the bytes →
// message layer in isolation, including every limit and error mapping.
#include "server/http.h"

#include <gtest/gtest.h>

#include <string>

namespace egp {
namespace {

using State = HttpRequestParser::State;

TEST(HttpParserTest, ParsesASimpleGet) {
  HttpRequestParser parser;
  ASSERT_EQ(parser.Feed("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"),
            State::kComplete);
  const HttpRequest request = parser.Take();
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/healthz");
  EXPECT_EQ(request.minor_version, 1);
  ASSERT_NE(request.FindHeader("host"), nullptr);  // case-insensitive
  EXPECT_EQ(*request.FindHeader("HOST"), "x");
  EXPECT_TRUE(request.body.empty());
  EXPECT_TRUE(request.KeepAlive());
}

TEST(HttpParserTest, ParsesAPostBodyByContentLength) {
  HttpRequestParser parser;
  ASSERT_EQ(parser.Feed("POST /v1/preview HTTP/1.1\r\n"
                        "Content-Type: application/json\r\n"
                        "Content-Length: 7\r\n\r\n{\"k\":2}"),
            State::kComplete);
  const HttpRequest request = parser.Take();
  EXPECT_EQ(request.body, "{\"k\":2}");
  EXPECT_EQ(request.Path(), "/v1/preview");
}

TEST(HttpParserTest, AcceptsByteByByteDelivery) {
  const std::string raw =
      "POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc";
  HttpRequestParser parser;
  for (size_t i = 0; i < raw.size() - 1; ++i) {
    ASSERT_EQ(parser.Feed(std::string_view(&raw[i], 1)), State::kNeedMore)
        << "byte " << i;
  }
  ASSERT_EQ(parser.Feed(std::string_view(&raw[raw.size() - 1], 1)),
            State::kComplete);
  EXPECT_EQ(parser.Take().body, "abc");
}

TEST(HttpParserTest, HandlesPipelinedRequestsAcrossTake) {
  HttpRequestParser parser;
  ASSERT_EQ(parser.Feed("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"),
            State::kComplete);
  EXPECT_EQ(parser.Take().target, "/a");
  ASSERT_EQ(parser.Continue(), State::kComplete);
  EXPECT_EQ(parser.Take().target, "/b");
  EXPECT_TRUE(parser.AtMessageBoundary());
}

TEST(HttpParserTest, QueryStringSplitsFromPath) {
  HttpRequestParser parser;
  ASSERT_EQ(parser.Feed("GET /v1/datasets?verbose=1 HTTP/1.1\r\n\r\n"),
            State::kComplete);
  const HttpRequest request = parser.Take();
  EXPECT_EQ(request.Path(), "/v1/datasets");
  EXPECT_EQ(request.Query(), "verbose=1");
}

TEST(HttpParserTest, ConnectionHeaderControlsKeepAlive) {
  HttpRequestParser parser;
  ASSERT_EQ(parser.Feed("GET / HTTP/1.1\r\nConnection: close\r\n\r\n"),
            State::kComplete);
  EXPECT_FALSE(parser.Take().KeepAlive());
  ASSERT_EQ(parser.Feed("GET / HTTP/1.0\r\n\r\n"), State::kComplete);
  EXPECT_FALSE(parser.Take().KeepAlive());  // 1.0 default: close
  ASSERT_EQ(parser.Feed("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"),
            State::kComplete);
  EXPECT_TRUE(parser.Take().KeepAlive());
}

TEST(HttpParserTest, ConnectionHeaderIsATokenList) {
  // RFC 9110 §7.6.1: Connection is a comma-separated token list.
  // "close, TE" must close exactly like a lone "close"; matching must be
  // case-insensitive and whole-token ("closet" is not "close").
  HttpRequestParser parser;
  ASSERT_EQ(parser.Feed("GET / HTTP/1.1\r\nConnection: close, TE\r\n\r\n"),
            State::kComplete);
  EXPECT_FALSE(parser.Take().KeepAlive());
  ASSERT_EQ(parser.Feed("GET / HTTP/1.1\r\nConnection: TE ,Close\r\n\r\n"),
            State::kComplete);
  EXPECT_FALSE(parser.Take().KeepAlive());
  ASSERT_EQ(parser.Feed("GET / HTTP/1.1\r\nConnection: closet\r\n\r\n"),
            State::kComplete);
  EXPECT_TRUE(parser.Take().KeepAlive());  // not the close token
  ASSERT_EQ(
      parser.Feed("GET / HTTP/1.0\r\nConnection: TE, Keep-Alive\r\n\r\n"),
      State::kComplete);
  EXPECT_TRUE(parser.Take().KeepAlive());
  // close wins when a confused client sends both.
  ASSERT_EQ(parser.Feed(
                "GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n"),
            State::kComplete);
  EXPECT_FALSE(parser.Take().KeepAlive());
}

TEST(HeaderListContainsTokenTest, MatchesTokensNotSubstrings) {
  EXPECT_TRUE(HeaderListContainsToken("close", "close"));
  EXPECT_TRUE(HeaderListContainsToken("close, TE", "close"));
  EXPECT_TRUE(HeaderListContainsToken("TE , close", "close"));
  EXPECT_TRUE(HeaderListContainsToken("CLOSE", "close"));
  EXPECT_TRUE(HeaderListContainsToken(", ,close", "close"));  // empty elems
  EXPECT_FALSE(HeaderListContainsToken("closet", "close"));
  EXPECT_FALSE(HeaderListContainsToken("pre-close", "close"));
  EXPECT_FALSE(HeaderListContainsToken("", "close"));
}

TEST(HttpParserTest, RejectsMalformedRequestLines) {
  for (const char* bad : {
           "GET\r\n\r\n",                        // no target/version
           "GET / HTTP/1.1 extra\r\n\r\n",       // junk after version
           "GET  / HTTP/1.1\r\n\r\n",            // double space
           "G@T / HTTP/1.1\r\n\r\n",             // bad method token
           "GET relative HTTP/1.1\r\n\r\n",      // not origin-form
       }) {
    HttpRequestParser parser;
    ASSERT_EQ(parser.Feed(bad), State::kError) << bad;
    EXPECT_EQ(parser.error_status(), 400) << bad;
  }
}

TEST(HttpParserTest, RejectsUnsupportedVersions) {
  HttpRequestParser parser;
  ASSERT_EQ(parser.Feed("GET / HTTP/2.0\r\n\r\n"), State::kError);
  EXPECT_EQ(parser.error_status(), 505);
}

TEST(HttpParserTest, RejectsTransferEncoding) {
  HttpRequestParser parser;
  ASSERT_EQ(parser.Feed("POST / HTTP/1.1\r\n"
                        "Transfer-Encoding: chunked\r\n\r\n"),
            State::kError);
  EXPECT_EQ(parser.error_status(), 501);
}

TEST(HttpParserTest, RejectsBadContentLength) {
  for (const char* value : {"abc", "-1", "1 2", "", "99999999999999999999"}) {
    HttpRequestParser parser;
    const std::string raw = std::string("POST / HTTP/1.1\r\nContent-Length: ") +
                            value + "\r\n\r\n";
    ASSERT_EQ(parser.Feed(raw), State::kError) << value;
    EXPECT_EQ(parser.error_status(), 400) << value;
  }
  // Duplicate-but-equal lengths are tolerated; conflicting ones are not.
  HttpRequestParser equal;
  EXPECT_EQ(equal.Feed("POST / HTTP/1.1\r\nContent-Length: 1\r\n"
                       "Content-Length: 1\r\n\r\nx"),
            State::kComplete);
  HttpRequestParser conflict;
  ASSERT_EQ(conflict.Feed("POST / HTTP/1.1\r\nContent-Length: 1\r\n"
                          "Content-Length: 2\r\n\r\n"),
            State::kError);
  EXPECT_EQ(conflict.error_status(), 400);
}

TEST(HttpParserTest, RejectsObsoleteHeaderFolding) {
  HttpRequestParser parser;
  ASSERT_EQ(parser.Feed("GET / HTTP/1.1\r\nA: 1\r\n  folded\r\n\r\n"),
            State::kError);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(HttpParserTest, EnforcesHeadLimit) {
  constexpr size_t kLimit = HttpRequestParser::kMaxHeadBytes;
  ASSERT_EQ(kLimit, 16u * 1024);
  // A head of `size` bytes, blank line included.
  const auto head = [](size_t size) {
    const std::string prefix = "GET / HTTP/1.1\r\nX-Padding: ";
    return prefix + std::string(size - prefix.size() - 4, 'a') + "\r\n\r\n";
  };
  {
    HttpRequestParser parser;
    ASSERT_EQ(parser.Feed(head(kLimit)), State::kComplete);
    EXPECT_EQ(parser.Take().headers.size(), 1u);
  }
  {
    HttpRequestParser parser;
    ASSERT_EQ(parser.Feed(head(kLimit + 1)), State::kError);
    EXPECT_EQ(parser.error_status(), 431);
  }
  {
    // Oversized before the blank line ever arrives.
    HttpRequestParser parser;
    const std::string open_head = head(kLimit + 5).substr(0, kLimit + 1);
    ASSERT_EQ(parser.Feed(open_head), State::kError);
    EXPECT_EQ(parser.error_status(), 431);
  }
}

TEST(HttpParserTest, EnforcesBodyLimit) {
  HttpParserLimits limits;
  limits.max_body_bytes = 16;
  HttpRequestParser parser(limits);
  ASSERT_EQ(parser.Feed("POST / HTTP/1.1\r\nContent-Length: 17\r\n\r\n"),
            State::kError);
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(HttpResponseTest, SerializesStatusAndFraming) {
  HttpResponse response;
  response.status = 200;
  response.body = "{\"ok\":true}";
  const std::string keep = SerializeResponse(response, true);
  EXPECT_EQ(keep.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(keep.find("Content-Length: 11\r\n"), std::string::npos);
  EXPECT_NE(keep.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_NE(keep.find("Content-Type: application/json\r\n"),
            std::string::npos);
  EXPECT_NE(keep.find("\r\n\r\n{\"ok\":true}"), std::string::npos);

  response.close_connection = true;
  const std::string close = SerializeResponse(response, true);
  EXPECT_NE(close.find("Connection: close\r\n"), std::string::npos);
}

TEST(HttpResponseTest, HeadKeepsTheBodysContentLength) {
  // HEAD framing: the head — including the Content-Length the matching
  // GET would carry — without the body bytes.
  HttpResponse response;
  response.body = "{\"ok\":true}";
  const std::string head_only = SerializeHead(response, true);
  EXPECT_NE(head_only.find("Content-Length: 11\r\n"), std::string::npos);
  EXPECT_EQ(head_only.find("{\"ok\":true}"), std::string::npos);
  EXPECT_EQ(head_only.substr(head_only.size() - 4), "\r\n\r\n");
}

TEST(HttpResponseTest, JsonErrorBodyEscapes) {
  EXPECT_EQ(JsonErrorBody(400, "bad \"quote\"\n"),
            "{\"error\":{\"status\":400,\"message\":"
            "\"bad \\\"quote\\\"\\n\"}}");
}

TEST(HttpResponseTest, ReasonPhrases) {
  EXPECT_EQ(HttpStatusReason(404), "Not Found");
  EXPECT_EQ(HttpStatusReason(503), "Service Unavailable");
  EXPECT_EQ(HttpStatusReason(418), "Error");  // unmapped non-2xx
}

}  // namespace
}  // namespace egp
