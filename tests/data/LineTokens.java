import com.sun.tools.javac.parser.Scanner;
import com.sun.tools.javac.parser.ScannerFactory;
import com.sun.tools.javac.parser.Tokens.Token;
import com.sun.tools.javac.parser.Tokens.TokenKind;
import com.sun.tools.javac.util.Context;
import java.io.BufferedReader;
import java.io.InputStreamReader;
import java.io.PrintStream;
import java.nio.charset.StandardCharsets;

/**
 * Reads source lines from stdin and prints, for each, the pos and endPos of
 * every token javac's scanner finds, the end-of-input token included, or "!"
 * when the scanner rejects the line. Compile and run it with
 * --add-exports jdk.compiler/com.sun.tools.javac.{parser,util}=ALL-UNNAMED.
 */
public class LineTokens {
    public static void main(String[] args) throws Exception {
        BufferedReader in =
                new BufferedReader(new InputStreamReader(System.in, StandardCharsets.UTF_8));
        PrintStream out = new PrintStream(System.out, true, StandardCharsets.UTF_8);
        ScannerFactory factory = ScannerFactory.instance(new Context());
        for (String line; (line = in.readLine()) != null; ) {
            StringBuilder positions = new StringBuilder();
            try {
                Scanner scanner = factory.newScanner(line, false);
                Token token;
                do {
                    scanner.nextToken();
                    token = scanner.token();
                    positions.append(token.pos).append(' ').append(token.endPos).append(' ');
                } while (token.kind != TokenKind.EOF);
            } catch (RuntimeException e) {
                positions = new StringBuilder("!");
            }
            out.println(positions.toString().trim());
        }
    }
}
